//! Trace reducer: turns the spans of a traced run into per-layer numbers,
//! normalised per rank and per step.
//!
//! A span group's *busy* time is the union of its spans on each thread,
//! summed over threads, so nested or repeated labels never count twice.
//! Its *self* time is that union minus the part covered by other groups
//! nested in it on the same thread.

use crate::metrics::Values;
use fpdt_trace::metrics::{intersect, measure, slot_balance, union};
use fpdt_trace::SpanRecord;
use std::collections::BTreeMap;

/// Copy-stream transfers, both directions.
const COPY: &[&str] = &["offload.put", "offload.fetch", "offload.prefetch"];
/// Comm-stream wire occupancy.
const COMM: &[&str] = &["comm.inflight"];
/// Everything `DistAttention` and its streams record inside a block.
const INSIDE_BLOCK: &[&str] = &["slot.", "attn.", "a2a.", "kernel.", "comm.", "offload."];

fn matches(label: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| label.starts_with(p))
}

/// Merged intervals of the matching spans, per recording thread.
fn by_thread(records: &[SpanRecord], prefixes: &[&str]) -> BTreeMap<u64, Vec<(f64, f64)>> {
    let mut raw: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in records.iter().filter(|s| matches(&s.label, prefixes)) {
        raw.entry(s.tid)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    raw.into_iter().map(|(tid, iv)| (tid, union(iv))).collect()
}

/// Busy microseconds of a span group: per-thread unions, summed.
pub fn busy_us(records: &[SpanRecord], prefixes: &[&str]) -> f64 {
    by_thread(records, prefixes)
        .values()
        .map(|iv| measure(iv))
        .sum()
}

/// Self microseconds of `group`: its busy time minus what the `nested`
/// groups cover of it on the same thread.
pub fn self_us(records: &[SpanRecord], group: &[&str], nested: &[&str]) -> f64 {
    let inner = by_thread(records, nested);
    by_thread(records, group)
        .iter()
        .map(|(tid, outer)| {
            let covered = inner
                .get(tid)
                .map_or(0.0, |iv| measure(&intersect(outer, iv)));
            measure(outer) - covered
        })
        .sum()
}

/// Microseconds the rank threads themselves (the ones that record
/// `block.*`) spent inside the matching spans: a transfer run inline, or a
/// wait for one that a stream did not finish in time. This is a stream's
/// *exposed* time. Overlap with compute on *another* thread would not do:
/// with two ranks in one trace the other rank is always computing.
pub fn on_rank_threads_us(records: &[SpanRecord], prefixes: &[&str]) -> f64 {
    let ranks = by_thread(records, &["block."]);
    by_thread(records, prefixes)
        .iter()
        .filter(|(tid, _)| ranks.contains_key(tid))
        .map(|(_, iv)| measure(iv))
        .sum()
}

/// Share of a stream's busy time that no rank waited for.
fn hidden_share(busy: f64, exposed: f64) -> f64 {
    if busy <= 0.0 {
        return 0.0;
    }
    (1.0 - exposed / busy).clamp(0.0, 1.0)
}

/// Number of spans whose label starts with `prefix`.
pub fn count(records: &[SpanRecord], prefix: &str) -> usize {
    records
        .iter()
        .filter(|s| s.label.starts_with(prefix))
        .count()
}

/// Coefficient of variation of per-slot time: each thread's `label` spans
/// in start order are folded by position modulo `slots` (every chunk loop
/// emits exactly `slots` of them), then scored by `slot_balance`.
pub fn slot_skew(records: &[SpanRecord], label: &str, slots: usize) -> f64 {
    let mut per_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in records.iter().filter(|s| s.label == label) {
        per_thread.entry(s.tid).or_default().push(s);
    }
    let mut folded = vec![0.0f64; slots];
    for spans in per_thread.values_mut() {
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for (idx, s) in spans.iter().enumerate() {
            folded[idx % slots] += s.dur_us;
        }
    }
    slot_balance(&folded).skew
}

/// The spans that start inside one of the `windows` (the timed segments),
/// so warm-up and set-up never leak into per-step numbers.
pub fn within(records: &[SpanRecord], windows: &[(f64, f64)]) -> Vec<SpanRecord> {
    records
        .iter()
        .filter(|s| {
            windows
                .iter()
                .any(|&(a, b)| s.start_us >= a && s.start_us < b)
        })
        .cloned()
        .collect()
}

/// Microseconds from the start of `window` (one `run_steps` call) to the
/// first span under `prefix` on any thread: what the call spends before
/// its first unit of work.
pub fn lead_in_us(records: &[SpanRecord], prefix: &str, window: (f64, f64)) -> Option<f64> {
    records
        .iter()
        .filter(|s| s.label.starts_with(prefix))
        .map(|s| s.start_us)
        .filter(|&t| t >= window.0 && t < window.1)
        .min_by(f64::total_cmp)
        .map(|t| t - window.0)
}

/// What the reducer divides by.
pub struct Norm {
    /// Rank threads in the run.
    pub ranks: usize,
    /// Optimizer steps the records cover.
    pub steps: usize,
    /// Chunk slots per attention loop.
    pub chunks: usize,
    /// Wall-clock of the covered segments, milliseconds per step.
    pub step_ms: f64,
}

/// Every trace-sourced per-layer metric, from the records of the timed
/// traced segments.
pub fn reduce(records: &[SpanRecord], norm: &Norm) -> Values {
    let per = (norm.ranks * norm.steps) as f64;
    let ms = |prefixes: &[&str]| busy_us(records, prefixes) / per / 1e3;
    let mut v = Values::default();

    let attn_fwd = ms(&["attn.fwd."]);
    let attn_bwd = ms(&["attn.bwd."]);
    v.set("exec.attn_fwd_ms_per_step", attn_fwd);
    v.set("exec.attn_bwd_ms_per_step", attn_bwd);
    v.set("exec.kernel_ms_per_step", ms(&["kernel.attn."]));
    v.set("exec.a2a_ms_per_step", ms(&["a2a."]));
    let tiles = count(records, "kernel.attn.update") + count(records, "attn.bwd.tile");
    v.set("exec.tiles_per_step", tiles as f64 / per);
    v.set(
        "exec.slot_skew_fwd",
        slot_skew(records, "slot.fwd", norm.chunks),
    );
    v.set(
        "exec.slot_skew_bwd",
        slot_skew(records, "slot.bwd", norm.chunks),
    );
    v.set("exec.attn_share", (attn_fwd + attn_bwd) / norm.step_ms);

    let exposed_ms = |prefixes: &[&str]| on_rank_threads_us(records, prefixes) / per / 1e3;
    let inflight = ms(COMM);
    let comm_exposed = exposed_ms(&["comm.inflight", "comm.wait"]);
    v.set(
        "comm.posts_per_step",
        count(records, "comm.post") as f64 / per,
    );
    v.set("comm.inflight_ms_per_step", inflight);
    v.set("comm.exposed_ms_per_step", comm_exposed);
    v.set(
        "comm.overlap_fraction",
        hidden_share(inflight, comm_exposed),
    );

    let copy_busy = ms(COPY);
    let copy_exposed = exposed_ms(&["offload."]);
    v.set("offload.busy_ms_per_step", copy_busy);
    v.set("offload.exposed_ms_per_step", copy_exposed);
    v.set(
        "offload.overlap_fraction",
        hidden_share(copy_busy, copy_exposed),
    );

    let block_fwd = ms(&["block.fwd"]);
    let block_bwd = ms(&["block.bwd"]);
    let allreduce = ms(&["allreduce.grads"]);
    v.set("gpt.block_fwd_ms_per_step", block_fwd);
    v.set("gpt.block_bwd_ms_per_step", block_bwd);
    v.set(
        "gpt.dense_ms_per_step",
        self_us(records, &["block."], INSIDE_BLOCK) / per / 1e3,
    );
    v.set(
        "gpt.outside_blocks_ms_per_step",
        norm.step_ms - block_fwd - block_bwd - allreduce,
    );
    v.set("dist.allreduce_ms_per_step", allreduce);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &str, tid: u64, start_us: f64, dur_us: f64) -> SpanRecord {
        SpanRecord {
            label: label.to_string(),
            tid,
            start_us,
            dur_us,
            bytes: None,
        }
    }

    /// One rank's step: a 1000 µs forward block holding a 600 µs attention
    /// chunk (which itself holds a 400 µs kernel), then a 500 µs backward
    /// block with a 200 µs tile, then a 100 µs all-reduce.
    fn one_rank(tid: u64, t0: f64) -> Vec<SpanRecord> {
        vec![
            span("block.fwd", tid, t0, 1000.0),
            span("slot.fwd", tid, t0 + 100.0, 700.0),
            span("attn.fwd.chunk", tid, t0 + 150.0, 600.0),
            span("kernel.attn.update", tid, t0 + 200.0, 400.0),
            span("block.bwd", tid, t0 + 1000.0, 500.0),
            span("slot.bwd", tid, t0 + 1100.0, 300.0),
            span("attn.bwd.tile", tid, t0 + 1150.0, 200.0),
            span("allreduce.grads", tid, t0 + 1500.0, 100.0),
        ]
    }

    #[test]
    fn nested_spans_do_not_count_twice() {
        let recs = one_rank(0, 0.0);
        // attn.* nests a kernel; the kernel is not attention *self* time
        assert_eq!(busy_us(&recs, &["attn."]), 800.0);
        assert_eq!(self_us(&recs, &["attn."], &["kernel."]), 400.0);
        // dense = blocks minus everything the executor records in them
        assert_eq!(
            self_us(&recs, &["block."], INSIDE_BLOCK),
            1500.0 - 700.0 - 300.0
        );
    }

    #[test]
    fn overlapping_spans_of_one_label_are_a_union() {
        let recs = vec![
            span("offload.put", 3, 0.0, 100.0),
            span("offload.put", 3, 50.0, 100.0),
            span("offload.put", 4, 0.0, 100.0),
        ];
        // 150 on thread 3 (merged) + 100 on thread 4 (a separate stream)
        assert_eq!(busy_us(&recs, &["offload."]), 250.0);
    }

    #[test]
    fn nesting_on_another_thread_is_not_subtracted() {
        let recs = vec![
            span("block.fwd", 0, 0.0, 1000.0),
            span("comm.inflight", 7, 100.0, 500.0),
        ];
        assert_eq!(self_us(&recs, &["block."], INSIDE_BLOCK), 1000.0);
    }

    #[test]
    fn two_ranks_reduce_to_the_per_rank_step() {
        let norm = |ranks| Norm {
            ranks,
            steps: 1,
            chunks: 1,
            step_ms: 2.0,
        };
        let one = reduce(&one_rank(0, 0.0), &norm(1));
        let mut both = one_rank(0, 0.0);
        both.extend(one_rank(1, 30.0));
        let two = reduce(&both, &norm(2));
        for name in [
            "exec.attn_fwd_ms_per_step",
            "exec.attn_bwd_ms_per_step",
            "exec.kernel_ms_per_step",
            "exec.tiles_per_step",
            "exec.attn_share",
            "gpt.block_fwd_ms_per_step",
            "gpt.dense_ms_per_step",
            "gpt.outside_blocks_ms_per_step",
            "dist.allreduce_ms_per_step",
        ] {
            assert_eq!(one.get(name), two.get(name), "{name}");
        }
        assert_eq!(two.get("exec.attn_fwd_ms_per_step"), 0.6);
        assert_eq!(two.get("exec.tiles_per_step"), 2.0);
        assert_eq!(two.get("exec.attn_share"), 0.4);
        assert_eq!(two.get("gpt.dense_ms_per_step"), 0.5);
        assert!((two.get("gpt.outside_blocks_ms_per_step") - 0.4).abs() < 1e-12);
    }

    #[test]
    fn span_counts_are_per_rank_and_step() {
        let mut recs = Vec::new();
        for rank in 0..2u64 {
            for step in 0..3 {
                for post in 0..4 {
                    let at = f64::from(step * 100 + post * 10);
                    recs.push(span("comm.post", rank, at, 1.0));
                    // the wire side rides that rank's worker thread
                    recs.push(span("comm.inflight", 10 + rank, at, 5.0));
                }
            }
        }
        let v = reduce(
            &recs,
            &Norm {
                ranks: 2,
                steps: 3,
                chunks: 1,
                step_ms: 1.0,
            },
        );
        assert_eq!(v.get("comm.posts_per_step"), 4.0);
        assert_eq!(v.get("comm.inflight_ms_per_step"), 0.02);
        // no rank ever waited, so the wire time is fully hidden
        assert_eq!(v.get("comm.exposed_ms_per_step"), 0.0);
        assert_eq!(v.get("comm.overlap_fraction"), 1.0);
    }

    #[test]
    fn exposed_time_is_what_the_rank_thread_itself_spends() {
        let norm = Norm {
            ranks: 2,
            steps: 1,
            chunks: 1,
            step_ms: 1.0,
        };
        let mut recs = Vec::new();
        for rank in 0..2u64 {
            recs.push(span("block.fwd", rank, 0.0, 1000.0));
            // 400 us on the wire, on the rank's comm worker; the rank
            // blocks for the last 100 us of it
            recs.push(span("comm.inflight", 10 + rank, 100.0, 400.0));
            recs.push(span("comm.wait", rank, 400.0, 100.0));
            // the copy stream has no helper thread: both transfers inline
            recs.push(span("offload.put", rank, 600.0, 50.0));
            recs.push(span("offload.fetch", rank, 700.0, 150.0));
        }
        let v = reduce(&recs, &norm);
        assert_eq!(v.get("comm.inflight_ms_per_step"), 0.4);
        assert_eq!(v.get("comm.exposed_ms_per_step"), 0.1);
        assert_eq!(v.get("comm.overlap_fraction"), 0.75);
        assert_eq!(v.get("offload.busy_ms_per_step"), 0.2);
        assert_eq!(v.get("offload.exposed_ms_per_step"), 0.2);
        assert_eq!(v.get("offload.overlap_fraction"), 0.0);

        // moved to a helper thread and waited on for 30 us, they hide
        for s in recs.iter_mut().filter(|s| s.label.starts_with("offload.")) {
            s.tid += 20;
        }
        for rank in 0..2u64 {
            recs.push(span("offload.wait", rank, 820.0, 30.0));
        }
        let v = reduce(&recs, &norm);
        assert_eq!(v.get("offload.busy_ms_per_step"), 0.2);
        assert_eq!(v.get("offload.exposed_ms_per_step"), 0.03);
        assert_eq!(v.get("offload.overlap_fraction"), 0.85);
    }

    #[test]
    fn slot_skew_folds_each_thread_by_position() {
        // two loops of two slots per thread: slot 0 = 100, slot 1 = 300
        let mut recs = Vec::new();
        for tid in 0..2u64 {
            for lap in 0..2 {
                let t0 = f64::from(lap) * 1000.0;
                recs.push(span("slot.bwd", tid, t0, 100.0));
                recs.push(span("slot.bwd", tid, t0 + 100.0, 300.0));
            }
        }
        recs.reverse(); // recorder order is drop order, not start order
        assert_eq!(slot_skew(&recs, "slot.bwd", 2), 0.5);
        assert_eq!(slot_skew(&recs, "slot.fwd", 2), 0.0);
    }

    #[test]
    fn lead_in_is_the_gap_before_the_first_block() {
        let recs = vec![
            span("block.fwd", 1, 170.0, 10.0),
            span("block.fwd", 0, 150.0, 10.0),
            span("a2a.scatter_heads", 0, 120.0, 5.0),
            span("block.fwd", 0, 20.0, 10.0),
        ];
        assert_eq!(lead_in_us(&recs, "block.", (100.0, 300.0)), Some(50.0));
        assert_eq!(lead_in_us(&recs, "block.", (300.0, 400.0)), None);
    }

    #[test]
    fn within_keeps_only_spans_starting_in_a_window() {
        let recs = vec![
            span("block.fwd", 0, 5.0, 10.0),
            span("block.fwd", 0, 50.0, 10.0),
            span("block.fwd", 0, 150.0, 10.0),
        ];
        let kept = within(&recs, &[(40.0, 100.0), (140.0, 200.0)]);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].start_us, 50.0);
    }
}
