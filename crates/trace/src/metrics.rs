//! Derived schedule metrics: the regression signal distilled from an
//! event log. All quantities are computed from task intervals alone, so
//! they work identically on simulator output and on hand-built logs.

use crate::span::SpanRecord;
use fpdt_sim::engine::{SimReport, TaskKind, TaskRecord};

/// Busy time of one stream relative to the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOccupancy {
    /// Stream name (e.g. `"gpu0.h2d"`).
    pub stream: String,
    /// Total busy seconds (sum of task durations; streams serialize, so
    /// tasks on one stream never overlap).
    pub busy_seconds: f64,
    /// `busy_seconds / makespan`, 0 when the makespan is 0.
    pub occupancy: f64,
}

/// Busy time and traffic of one shared resource (a PCIe direction, a NIC).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceBusy {
    /// Resource name (e.g. `"pcie.h2d"`).
    pub resource: String,
    /// Seconds during which at least one transfer used the resource
    /// (union of transfer intervals, not a sum).
    pub busy_seconds: f64,
    /// `busy_seconds / makespan`, 0 when the makespan is 0.
    pub busy_fraction: f64,
    /// Total payload bytes moved through the resource.
    pub bytes: u64,
}

/// High-water mark of one memory pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPeak {
    /// Pool name (e.g. `"hbm0"`).
    pub pool: String,
    /// Peak bytes ever live in the pool.
    pub peak_bytes: u64,
    /// Whether the peak exceeded the pool's declared capacity.
    pub oom: bool,
}

/// Everything the observability layer distills from one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// End-to-end schedule length, seconds.
    pub makespan: f64,
    /// Per-stream occupancy, in stream registration order (first
    /// appearance order when built from a bare record slice).
    pub streams: Vec<StreamOccupancy>,
    /// Per-resource busy time, in first-appearance order.
    pub resources: Vec<ResourceBusy>,
    /// Seconds during which at least one compute task ran (interval union).
    pub compute_seconds: f64,
    /// Seconds during which at least one transfer ran (interval union).
    pub copy_seconds: f64,
    /// Seconds during which a transfer ran *concurrently with* compute.
    pub overlapped_copy_seconds: f64,
    /// `overlapped_copy_seconds / copy_seconds` — the fraction of copy
    /// time hidden behind compute (the paper's headline property). 0 when
    /// there is no copy time at all.
    pub overlap_ratio: f64,
    /// Memory-pool high-water marks (empty when built from a bare record
    /// slice, which carries no pool state).
    pub pools: Vec<PoolPeak>,
}

impl ScheduleMetrics {
    /// Computes metrics from a bare event log. `makespan` is the schedule
    /// horizon used for fractions; pass the last finish time (or the
    /// simulator's makespan).
    pub fn from_records(records: &[TaskRecord], makespan: f64) -> Self {
        let mut streams: Vec<StreamOccupancy> = Vec::new();
        let mut resources: Vec<ResourceBusy> = Vec::new();
        let mut compute_iv: Vec<(f64, f64)> = Vec::new();
        let mut copy_iv: Vec<(f64, f64)> = Vec::new();
        let mut resource_iv: Vec<Vec<(f64, f64)>> = Vec::new();

        for r in records {
            let dur = r.duration();
            match streams.iter_mut().find(|s| s.stream == r.stream) {
                Some(s) => s.busy_seconds += dur,
                None => streams.push(StreamOccupancy {
                    stream: r.stream.clone(),
                    busy_seconds: dur,
                    occupancy: 0.0,
                }),
            }
            match r.kind {
                TaskKind::Compute => compute_iv.push((r.start, r.finish)),
                TaskKind::Transfer => {
                    copy_iv.push((r.start, r.finish));
                    let res = r.resource.as_deref().unwrap_or("?");
                    let idx = match resources.iter().position(|x| x.resource == res) {
                        Some(i) => i,
                        None => {
                            resources.push(ResourceBusy {
                                resource: res.to_string(),
                                busy_seconds: 0.0,
                                busy_fraction: 0.0,
                                bytes: 0,
                            });
                            resource_iv.push(Vec::new());
                            resources.len() - 1
                        }
                    };
                    resources[idx].bytes += r.bytes.unwrap_or(0);
                    resource_iv[idx].push((r.start, r.finish));
                }
                TaskKind::Event => {}
            }
        }

        let compute_union = union(compute_iv);
        let copy_union = union(copy_iv);
        let compute_seconds = measure(&compute_union);
        let copy_seconds = measure(&copy_union);
        let overlapped_copy_seconds = measure(&intersect(&compute_union, &copy_union));
        let frac = |x: f64| if makespan > 0.0 { x / makespan } else { 0.0 };

        for s in &mut streams {
            s.occupancy = frac(s.busy_seconds);
        }
        for (res, iv) in resources.iter_mut().zip(resource_iv) {
            res.busy_seconds = measure(&union(iv));
            res.busy_fraction = frac(res.busy_seconds);
        }

        ScheduleMetrics {
            makespan,
            streams,
            resources,
            compute_seconds,
            copy_seconds,
            overlapped_copy_seconds,
            overlap_ratio: if copy_seconds > 0.0 {
                overlapped_copy_seconds / copy_seconds
            } else {
                0.0
            },
            pools: Vec::new(),
        }
    }

    /// Computes metrics from a full simulator report: record-derived
    /// numbers plus every registered stream (idle ones included, at zero
    /// occupancy) and memory-pool peaks.
    pub fn from_report(report: &SimReport) -> Self {
        let mut m = Self::from_records(report.task_records(), report.makespan);
        // Registered-but-idle streams still belong in the occupancy table.
        for (i, name) in report.streams().iter().enumerate() {
            if !m.streams.iter().any(|s| &s.stream == name) {
                m.streams.insert(
                    i.min(m.streams.len()),
                    StreamOccupancy {
                        stream: name.clone(),
                        busy_seconds: 0.0,
                        occupancy: 0.0,
                    },
                );
            }
        }
        m.pools = report
            .pools
            .ids()
            .into_iter()
            .map(|id| PoolPeak {
                pool: report.pools.name(id).unwrap_or("?").to_string(),
                peak_bytes: report.pools.peak(id).unwrap_or(0),
                oom: report.pools.oom(id).unwrap_or(false),
            })
            .collect();
        m
    }

    /// Busy fraction of a named resource, if it appeared in the log.
    pub fn resource_busy_fraction(&self, resource: &str) -> Option<f64> {
        self.resources
            .iter()
            .find(|r| r.resource == resource)
            .map(|r| r.busy_fraction)
    }

    /// Occupancy of a named stream, if present.
    pub fn stream_occupancy(&self, stream: &str) -> Option<f64> {
        self.streams
            .iter()
            .find(|s| s.stream == stream)
            .map(|s| s.occupancy)
    }

    /// Largest pool peak, if any pools were tracked — the HBM high-water
    /// mark when the schedule models a single GPU.
    pub fn peak_pool_bytes(&self) -> Option<u64> {
        self.pools.iter().map(|p| p.peak_bytes).max()
    }

    /// Renders the metrics as a JSON object (machine-readable `BENCH_*`
    /// artifact payload).
    pub fn to_json(&self) -> String {
        use crate::json::{esc, num};
        let streams: Vec<String> = self
            .streams
            .iter()
            .map(|s| {
                format!(
                    "{{\"stream\":{},\"busy_seconds\":{},\"occupancy\":{}}}",
                    esc(&s.stream),
                    num(s.busy_seconds),
                    num(s.occupancy)
                )
            })
            .collect();
        let resources: Vec<String> = self
            .resources
            .iter()
            .map(|r| {
                format!(
                    "{{\"resource\":{},\"busy_seconds\":{},\"busy_fraction\":{},\"bytes\":{}}}",
                    esc(&r.resource),
                    num(r.busy_seconds),
                    num(r.busy_fraction),
                    r.bytes
                )
            })
            .collect();
        let pools: Vec<String> = self
            .pools
            .iter()
            .map(|p| {
                format!(
                    "{{\"pool\":{},\"peak_bytes\":{},\"oom\":{}}}",
                    esc(&p.pool),
                    p.peak_bytes,
                    p.oom
                )
            })
            .collect();
        format!(
            "{{\"makespan_seconds\":{},\"compute_seconds\":{},\"copy_seconds\":{},\
             \"overlapped_copy_seconds\":{},\"overlap_ratio\":{},\
             \"streams\":[{}],\"resources\":[{}],\"pools\":[{}]}}",
            num(self.makespan),
            num(self.compute_seconds),
            num(self.copy_seconds),
            num(self.overlapped_copy_seconds),
            num(self.overlap_ratio),
            streams.join(","),
            resources.join(","),
            pools.join(",")
        )
    }
}

/// Merges intervals into a disjoint, sorted union.
pub fn union(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|&(a, b)| b > a);
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of a disjoint interval set.
pub fn measure(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|&(a, b)| b - a).sum()
}

/// How evenly a pipeline's per-slot work is spread — the regression
/// signal behind the causal load-balanced tile schedule, where the goal
/// is near-equal slots instead of the triangular `u, u-1, .., 1` ramp.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotBalance {
    /// Number of pipeline slots measured.
    pub slots: usize,
    /// Mean slot duration (same unit as the inputs).
    pub mean: f64,
    /// Coefficient of variation: population standard deviation over the
    /// mean. 0 for perfectly equal slots; `sqrt(1.25)/2.5 ≈ 0.447` for
    /// the triangular `1, 2, 3, 4`.
    pub skew: f64,
    /// Last slot's share of the total — the tail-slot occupancy. `1/slots`
    /// when balanced; under the sequential causal forward the last slot
    /// dominates, under the sequential backward it starves.
    pub tail_fraction: f64,
}

/// Computes [`SlotBalance`] from per-slot durations, in slot order.
/// Degenerate inputs (empty set, zero total) yield all-zero statistics
/// except `slots`, and a single slot is reported as zero skew with a
/// tail fraction of 1.
pub fn slot_balance(durations: &[f64]) -> SlotBalance {
    let slots = durations.len();
    let total: f64 = durations.iter().sum();
    if slots == 0 || total <= 0.0 {
        return SlotBalance {
            slots,
            mean: 0.0,
            skew: 0.0,
            tail_fraction: 0.0,
        };
    }
    let mean = total / slots as f64;
    let var = durations
        .iter()
        .map(|d| (d - mean) * (d - mean))
        .sum::<f64>()
        / slots as f64;
    SlotBalance {
        slots,
        mean,
        skew: var.sqrt() / mean,
        tail_fraction: durations.last().copied().unwrap_or(0.0) / total,
    }
}

/// Share of `window` (`(start, end)` in recorder microseconds) that a rank
/// thread spends inside the union of the spans whose label starts with one
/// of `prefixes` — how much of a step the named categories account for.
/// Rank threads are the ones that record a `block.*` span in the window
/// (the convention of the repo benchmark's `on_rank_threads_us`, in
/// `benchmark/src/reduce.rs`); spans are clipped to
/// the window and the least-covered rank is reported. `0.0` when the
/// window is empty or no rank thread recorded in it.
pub fn coverage(records: &[SpanRecord], window: (f64, f64), prefixes: &[&str]) -> f64 {
    let (w0, w1) = window;
    let inside = |s: &&SpanRecord| s.start_us < w1 && s.start_us + s.dur_us > w0;
    let mut ranks: Vec<u64> = records
        .iter()
        .filter(inside)
        .filter(|s| s.label.starts_with("block."))
        .map(|s| s.tid)
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    if ranks.is_empty() || w1 <= w0 {
        return 0.0;
    }
    ranks
        .iter()
        .map(|&tid| {
            let named = records
                .iter()
                .filter(inside)
                .filter(|s| s.tid == tid && prefixes.iter().any(|p| s.label.starts_with(p)))
                .map(|s| (s.start_us.max(w0), (s.start_us + s.dur_us).min(w1)))
                .collect();
            measure(&union(named)) / (w1 - w0)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Where in a block a wait sits.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitPlace {
    /// Inside the block's slot of this index among its `slot.*` spans, in
    /// start order.
    Slot(usize),
    /// Outside every slot, inside a `dense.*` span of this label: the
    /// block's dense half, which streams over the attention's chunks.
    Dense(String),
    /// Outside every slot and every `dense.*` span.
    Tail,
}

/// The exposed waits of one rank thread in one place of one kind of
/// block, summed over every such block in the records.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotWaits {
    /// The rank thread.
    pub tid: u64,
    /// The enclosing block span: `"block.fwd"` or `"block.bwd"`.
    pub block: String,
    /// Where in the block the waits sit.
    pub place: WaitPlace,
    /// Summed `offload.wait`, microseconds.
    pub offload_wait_us: f64,
    /// Summed `comm.wait`, microseconds.
    pub comm_wait_us: f64,
}

/// Where a rank's exposed stream time sits in the pipeline: every
/// `offload.wait` and `comm.wait` on a rank thread (one that records a
/// `block.*` span), summed by the `block.fwd`/`block.bwd` span it starts
/// in and by the [`WaitPlace`] it starts in: a slot (`slot.fwd`/`slot.bwd`,
/// counted per block), else a `dense.*` span by label, else the tail.
/// Rows are ordered by thread, block label and place (slots, dense labels,
/// the tail last); only `(tid, block, place)` cells that hold a wait
/// appear, and a wait outside every block is left out.
pub fn waits_by_slot(records: &[SpanRecord]) -> Vec<SlotWaits> {
    use std::collections::BTreeMap;
    let within = |outer: &SpanRecord, s: &SpanRecord| {
        outer.tid == s.tid
            && s.start_us >= outer.start_us
            && s.start_us < outer.start_us + outer.dur_us
    };
    let blocks: Vec<&SpanRecord> = records
        .iter()
        .filter(|s| matches!(s.label.as_str(), "block.fwd" | "block.bwd"))
        .collect();
    let mut slots: Vec<&SpanRecord> = records
        .iter()
        .filter(|s| s.label.starts_with("slot."))
        .collect();
    slots.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let dense: Vec<&SpanRecord> = records
        .iter()
        .filter(|s| s.label.starts_with("dense."))
        .collect();
    let mut cells: BTreeMap<(u64, String, WaitPlace), (f64, f64)> = BTreeMap::new();
    for w in records {
        let offload = match w.label.as_str() {
            "offload.wait" => true,
            "comm.wait" => false,
            _ => continue,
        };
        let Some(block) = blocks.iter().find(|b| within(b, w)) else {
            continue;
        };
        let slot = slots
            .iter()
            .filter(|s| within(block, s))
            .position(|s| within(s, w));
        let place = match (slot, dense.iter().find(|d| within(d, w))) {
            (Some(slot), _) => WaitPlace::Slot(slot),
            (None, Some(d)) => WaitPlace::Dense(d.label.clone()),
            (None, None) => WaitPlace::Tail,
        };
        let cell = cells
            .entry((w.tid, block.label.clone(), place))
            .or_default();
        if offload {
            cell.0 += w.dur_us;
        } else {
            cell.1 += w.dur_us;
        }
    }
    cells
        .into_iter()
        .map(
            |((tid, block, place), (offload_wait_us, comm_wait_us))| SlotWaits {
                tid,
                block,
                place,
                offload_wait_us,
                comm_wait_us,
            },
        )
        .collect()
}

/// Intersection of two disjoint, sorted interval sets.
pub fn intersect(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            out.push((lo, hi));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdt_sim::engine::TaskRecord;

    #[test]
    fn interval_helpers() {
        let u = union(vec![(2.0, 3.0), (0.0, 1.0), (0.5, 2.5), (5.0, 5.0)]);
        assert_eq!(u, vec![(0.0, 3.0)]);
        assert!((measure(&u) - 3.0).abs() < 1e-12);
        let v = union(vec![(2.5, 4.0)]);
        assert_eq!(intersect(&u, &v), vec![(2.5, 3.0)]);
        assert!(intersect(&u, &[]).is_empty());
    }

    #[test]
    fn coverage_is_the_least_covered_rank_threads_share_of_the_window() {
        let span = |label: &str, tid: u64, start_us: f64, dur_us: f64| SpanRecord {
            label: label.to_string(),
            tid,
            start_us,
            dur_us,
            bytes: None,
        };
        let recs = vec![
            // rank 0: 70 of the 100 us window named (nested spans once)
            span("block.fwd", 0, 100.0, 50.0),
            span("dense.norm", 0, 100.0, 40.0),
            span("dense.norm", 0, 110.0, 10.0),
            span("head.loss", 0, 170.0, 60.0), // clipped at 200
            // rank 1: 80 named
            span("block.fwd", 1, 100.0, 80.0),
            span("dense.qkv", 1, 90.0, 90.0), // clipped at 100
            // a stream worker: records no block.*, so not a rank
            span("dense.norm", 7, 100.0, 1.0),
        ];
        let named = ["dense.", "head."];
        assert!((coverage(&recs, (100.0, 200.0), &named) - 0.7).abs() < 1e-12);
        // the container alone does not count unless asked for
        assert!((coverage(&recs, (100.0, 200.0), &["block."]) - 0.5).abs() < 1e-12);
        assert_eq!(coverage(&recs, (300.0, 400.0), &named), 0.0);
        assert_eq!(coverage(&recs, (200.0, 200.0), &named), 0.0);
    }

    fn span(label: &str, tid: u64, start_us: f64, dur_us: f64) -> SpanRecord {
        SpanRecord {
            label: label.to_string(),
            tid,
            start_us,
            dur_us,
            bytes: None,
        }
    }

    fn cell(tid: u64, block: &str, place: WaitPlace, offload: f64, comm: f64) -> SlotWaits {
        SlotWaits {
            tid,
            block: block.to_string(),
            place,
            offload_wait_us: offload,
            comm_wait_us: comm,
        }
    }

    #[test]
    fn waits_sum_by_block_slot_and_tail() {
        let recs = vec![
            // rank 0, layer 1 backward: two slots, then a tail
            span("block.bwd", 0, 100.0, 100.0),
            span("slot.bwd", 0, 110.0, 30.0),
            span("offload.wait", 0, 112.0, 5.0),
            span("comm.wait", 0, 120.0, 2.0),
            span("slot.bwd", 0, 140.0, 40.0),
            span("offload.wait", 0, 150.0, 1.0),
            span("comm.wait", 0, 185.0, 4.0), // tail
            // rank 0, layer 0 backward: its slot 0 adds to the same cell
            span("block.bwd", 0, 300.0, 50.0),
            span("slot.bwd", 0, 300.0, 20.0),
            span("offload.wait", 0, 305.0, 3.0),
            // a forward, recorded out of start order
            span("offload.wait", 0, 20.0, 7.0),
            span("slot.fwd", 0, 10.0, 30.0),
            span("block.fwd", 0, 0.0, 50.0),
            // rank 1: a wait inside its block; rank 0's spans are not its
            span("block.fwd", 1, 0.0, 50.0),
            span("comm.wait", 1, 20.0, 6.0),
            // outside every block, and a span that is not a wait
            span("offload.wait", 0, 60.0, 9.0),
            span("offload.fetch", 0, 115.0, 1.0),
        ];
        assert_eq!(
            waits_by_slot(&recs),
            vec![
                cell(0, "block.bwd", WaitPlace::Slot(0), 8.0, 2.0),
                cell(0, "block.bwd", WaitPlace::Slot(1), 1.0, 0.0),
                cell(0, "block.bwd", WaitPlace::Tail, 0.0, 4.0),
                cell(0, "block.fwd", WaitPlace::Slot(0), 7.0, 0.0),
                cell(1, "block.fwd", WaitPlace::Tail, 0.0, 6.0),
            ]
        );
        assert!(waits_by_slot(&[]).is_empty());
    }

    #[test]
    fn waits_in_the_streamed_dense_half_report_under_its_label() {
        let recs = vec![
            // a forward: one slot, then the dense half on two chunks with
            // a gather wait inside each chunk's out_proj span, one between
            // them and one after
            span("block.fwd", 0, 0.0, 100.0),
            span("slot.fwd", 0, 0.0, 40.0),
            span("comm.wait", 0, 10.0, 1.0),
            span("dense.out_proj", 0, 40.0, 10.0),
            span("comm.wait", 0, 41.0, 2.0),
            span("dense.mlp.fwd", 0, 50.0, 10.0),
            span("comm.wait", 0, 62.0, 3.0),
            span("dense.out_proj", 0, 65.0, 10.0),
            span("comm.wait", 0, 66.0, 4.0),
            span("offload.wait", 0, 70.0, 1.0),
            span("comm.wait", 0, 90.0, 5.0),
            // another thread's dense span does not hold rank 0's wait
            span("dense.qkv", 1, 0.0, 1000.0),
            span("block.bwd", 0, 200.0, 100.0),
            span("comm.wait", 0, 210.0, 6.0),
        ];
        assert_eq!(
            waits_by_slot(&recs),
            vec![
                cell(0, "block.bwd", WaitPlace::Tail, 0.0, 6.0),
                cell(0, "block.fwd", WaitPlace::Slot(0), 0.0, 1.0),
                cell(
                    0,
                    "block.fwd",
                    WaitPlace::Dense("dense.out_proj".into()),
                    1.0,
                    6.0
                ),
                cell(0, "block.fwd", WaitPlace::Tail, 0.0, 8.0),
            ]
        );
    }

    #[test]
    fn empty_log_yields_zeroes() {
        let m = ScheduleMetrics::from_records(&[], 0.0);
        assert_eq!(m.makespan, 0.0);
        assert!(m.streams.is_empty() && m.resources.is_empty());
        assert_eq!(m.overlap_ratio, 0.0);
        assert_eq!(m.copy_seconds, 0.0);
        assert_eq!(m.peak_pool_bytes(), None);
        // and the JSON payload still parses structurally
        assert!(m.to_json().starts_with('{'));
    }

    #[test]
    fn single_stream_compute_only() {
        let recs = vec![
            TaskRecord::compute("a", "gpu0.compute", 0.0, 1.0),
            TaskRecord::compute("b", "gpu0.compute", 1.0, 4.0),
        ];
        let m = ScheduleMetrics::from_records(&recs, 4.0);
        assert_eq!(m.streams.len(), 1);
        assert!((m.stream_occupancy("gpu0.compute").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.copy_seconds, 0.0);
        assert_eq!(m.overlap_ratio, 0.0, "no copies => no overlap to hide");
        assert!((m.compute_seconds - 4.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_with_known_values() {
        // compute busy [0,4); copy busy [2,6): overlap [2,4) = 2 of 4 copy
        // seconds => ratio 0.5.
        let recs = vec![
            TaskRecord::compute("k", "gpu0.compute", 0.0, 4.0),
            TaskRecord::transfer("x", "gpu0.h2d", 2.0, 6.0, 100, "pcie.h2d"),
        ];
        let m = ScheduleMetrics::from_records(&recs, 6.0);
        assert!((m.overlap_ratio - 0.5).abs() < 1e-12);
        assert!((m.overlapped_copy_seconds - 2.0).abs() < 1e-12);
        assert!((m.resource_busy_fraction("pcie.h2d").unwrap() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(m.resources[0].bytes, 100);
        assert!((m.stream_occupancy("gpu0.h2d").unwrap() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn double_counting_is_avoided_by_unions() {
        // Two concurrent copies on the same resource: busy time is the
        // union (3s), not the sum (5s); bytes do sum.
        let recs = vec![
            TaskRecord::transfer("x", "g0.h2d", 0.0, 2.0, 10, "pcie.h2d"),
            TaskRecord::transfer("y", "g1.h2d", 1.0, 3.0, 30, "pcie.h2d"),
        ];
        let m = ScheduleMetrics::from_records(&recs, 3.0);
        assert!((m.resources[0].busy_seconds - 3.0).abs() < 1e-12);
        assert_eq!(m.resources[0].bytes, 40);
        assert!((m.copy_seconds - 3.0).abs() < 1e-12);
    }

    #[test]
    fn slot_balance_on_perfectly_balanced_slots() {
        let b = slot_balance(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(b.slots, 4);
        assert!((b.mean - 2.0).abs() < 1e-12);
        assert!(b.skew.abs() < 1e-12, "equal slots => zero skew");
        assert!((b.tail_fraction - 0.25).abs() < 1e-12, "tail = 1/slots");
    }

    #[test]
    fn slot_balance_on_triangular_slots() {
        // The sequential causal ramp 1,2,3,4: mean 2.5, population
        // variance 1.25 => CV = sqrt(1.25)/2.5, tail = 4/10.
        let b = slot_balance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((b.mean - 2.5).abs() < 1e-12);
        assert!((b.skew - 1.25f64.sqrt() / 2.5).abs() < 1e-12);
        assert!((b.skew - 0.447_213_595_499_958).abs() < 1e-9);
        assert!((b.tail_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn slot_balance_degenerate_cases() {
        // Single chunk: one slot is trivially balanced and is the tail.
        let single = slot_balance(&[7.5]);
        assert_eq!(single.slots, 1);
        assert!(single.skew.abs() < 1e-12);
        assert!((single.tail_fraction - 1.0).abs() < 1e-12);
        // Empty and zero-duration sets never divide by zero.
        let empty = slot_balance(&[]);
        assert_eq!(
            (empty.slots, empty.mean, empty.skew, empty.tail_fraction),
            (0, 0.0, 0.0, 0.0)
        );
        let zeros = slot_balance(&[0.0, 0.0]);
        assert_eq!(
            (zeros.mean, zeros.skew, zeros.tail_fraction),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn events_are_ignored_by_busy_accounting() {
        let mut ev = TaskRecord::compute("sync", "gpu0.compute", 1.0, 1.0);
        ev.kind = fpdt_sim::engine::TaskKind::Event;
        let recs = vec![TaskRecord::compute("k", "gpu0.compute", 0.0, 1.0), ev];
        let m = ScheduleMetrics::from_records(&recs, 1.0);
        assert!((m.compute_seconds - 1.0).abs() < 1e-12);
    }
}
