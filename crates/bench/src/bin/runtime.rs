//! Runtime-throughput benchmark for the overlapped runtime: trains the
//! real FPDT runtime (offload on; comm and copy streams always on) with
//! f32 and with bf16 wire payloads, and measures tokens/s, the
//! compute/copy overlap fraction (paper Figure 13, on wall-clock spans
//! rather than the simulator), the compute/comm overlap fraction, and the
//! wait-time breakdowns — asserting that every repetition of a leg
//! produces bitwise-identical losses and that bf16 halves the all-to-all
//! bytes exactly.
//!
//! Overlap is scored on the rank thread's own time
//! ([`fpdt_trace::hidden_fraction`], the repo benchmark's definition):
//! the work rides the stream's own worker and only the rank's blocked
//! waits count against it. The kernel thread budget is left as the
//! caller set it — the streams do not borrow from it.
//!
//! Pass `--json` to suppress the table and emit only
//! `target/experiments/BENCH_runtime.json`; `--quick` shrinks the run for
//! CI smoke tests. Set `FPDT_DUMP_TRACE=1` to also write per-run Chrome
//! traces (`runtime_trace_bf16_{b}.json`) for Perfetto.

use fpdt_bench::json_mode;
use fpdt_core::runtime::dist::{train_traced, Mode, TrainConfig};
use fpdt_core::runtime::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use fpdt_trace::metrics::slot_balance;
use fpdt_trace::{hidden_fraction, Recorder};
use rayon::pool;
use serde::Serialize;
use std::time::Instant;

/// Copy-stream span labels (both directions).
const COPY: &[&str] = &["offload.prefetch", "offload.put"];
/// Comm-stream wire occupancy.
const COMM: &[&str] = &["comm.inflight"];
/// What a rank thread spends on the copy streams: blocked
/// `offload.wait`s.
const COPY_EXPOSED: &[&str] = &["offload."];
/// Likewise for the comm stream (`comm.post` is the hand-off, not wire
/// time).
const COMM_EXPOSED: &[&str] = &["comm.inflight", "comm.wait"];

#[derive(Serialize, Clone)]
struct Row {
    payload_bf16: bool,
    wall_ms: f64,
    tokens_per_s: f64,
    overlap_fraction: f64,
    comm_overlap_fraction: f64,
    copy_busy_us: f64,
    wait_us: f64,
    comm_busy_us: f64,
    comm_wait_us: f64,
    /// Coefficient of variation of per-slot backward wall time
    /// (`slot.bwd` spans folded by slot position): 0 = perfectly even.
    slot_skew: f64,
    /// Fraction of backward slot time spent in the last slot.
    slot_tail: f64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    bytes_a2a: u64,
    loss_digest: u64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    seq: usize,
    steps: usize,
    chunks: usize,
    threads: usize,
    /// Simulated interconnect bandwidth (`FPDT_SIM_GBPS`) the transfers
    /// were timed against.
    sim_gbps: f64,
    rows: Vec<Row>,
}

/// FNV-1a over the raw bits of the loss curve: equal digests ⇔ bitwise
/// equal trajectories.
fn digest(vals: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn main() {
    let quiet = json_mode();
    let quick = std::env::args().any(|a| a == "--quick");
    // This bench measures *transfer* overlap, so transfers must take
    // wall-clock time proportional to their wire bytes: model a ~1 GB/s
    // pageable host link (see `fpdt_trace::wire`) unless the caller
    // already picked a bandwidth. Must happen before any engine runs —
    // the knob is parsed once.
    if std::env::var_os("FPDT_SIM_GBPS").is_none() {
        std::env::set_var("FPDT_SIM_GBPS", "1");
    }
    let sim_gbps = fpdt_trace::wire::link_gbps();
    // Large enough that attention kernels run for hundreds of µs —
    // otherwise the sub-µs simulated transfers fall into scheduling gaps
    // between kernels and no overlap is measurable at all.
    let (seq, steps) = if quick { (512, 2) } else { (512, 3) };
    let chunks = 4usize;
    // Each leg is trained `reps` times and scored by its fastest run:
    // single ~100 ms runs swing several percent under OS noise.
    let reps = 3usize;

    let threads = pool::current_threads();

    let run_once = |payload_bf16: bool| {
        let cfg = TrainConfig {
            model: ModelConfig::tiny(2, 64, 4, 50),
            world: 1,
            seq,
            steps,
            mode: Mode::Fpdt {
                chunks,
                offload: true,
            },
            // Pin the payload explicitly so an ambient `FPDT_BF16` cannot
            // leak into the f32 leg.
            runtime: RuntimeOptions::from_env().with_payload_bf16(payload_bf16),
            ..TrainConfig::default()
        };
        let rec = Recorder::new();
        let t0 = Instant::now();
        let report = train_traced(&cfg, Some(&rec));
        let wall = t0.elapsed().as_secs_f64();
        let records = rec.records();
        if std::env::var("FPDT_DUMP_TRACE").is_ok() {
            std::fs::create_dir_all("target/experiments").expect("trace dir");
            std::fs::write(
                format!("target/experiments/runtime_trace_bf16_{payload_bf16}.json"),
                rec.chrome_trace_json(),
            )
            .expect("write trace");
        }
        // Fold every backward chunk loop's `slot.bwd` spans into per-slot
        // buckets by position (the recorder preserves drop order, and
        // each loop emits exactly `chunks` slots), then score the skew.
        let mut slot_us = vec![0.0f64; chunks];
        for (idx, s) in records
            .iter()
            .filter(|s| s.label == "slot.bwd")
            .enumerate()
        {
            slot_us[idx % chunks] += s.dur_us;
        }
        let slots = slot_balance(&slot_us);
        Row {
            payload_bf16,
            wall_ms: wall * 1e3,
            tokens_per_s: (seq * steps) as f64 / wall,
            overlap_fraction: hidden_fraction(&records, COPY, COPY_EXPOSED),
            comm_overlap_fraction: hidden_fraction(&records, COMM, COMM_EXPOSED),
            copy_busy_us: rec.total_us("offload.prefetch") + rec.total_us("offload.put"),
            wait_us: rec.total_us("offload.wait"),
            comm_busy_us: rec.total_us("comm.inflight"),
            comm_wait_us: rec.total_us("comm.wait"),
            slot_skew: slots.skew,
            slot_tail: slots.tail_fraction,
            bytes_h2d: rec.total_bytes("offload.prefetch"),
            bytes_d2h: rec.total_bytes("offload.put"),
            bytes_a2a: rec.total_bytes("comm.post"),
            loss_digest: digest(&report.losses),
        }
    };

    // Best-of-N: background load bursts on a shared host only ever slow
    // a run down, so the minimum wall time is the robust estimate of
    // what each leg actually costs. Every repetition must reproduce the
    // same loss bits — the streams re-time work, never re-associate it.
    let run = |payload_bf16: bool| {
        let tries: Vec<Row> = (0..reps).map(|_| run_once(payload_bf16)).collect();
        assert!(
            tries.iter().all(|r| r.loss_digest == tries[0].loss_digest),
            "repeated runs diverged (bf16 {payload_bf16})"
        );
        tries
            .into_iter()
            .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
            .expect("at least one rep")
    };

    // Warm the allocator, stream workers, and page cache before anything is
    // timed: the very first training run is reliably the slowest.
    let _ = run_once(false);

    // f32 and the paper configuration's bf16 wire payloads (half the
    // offload/all-to-all bytes, compute still f32).
    let f32_leg = run(false);
    let bf16 = run(true);
    assert_eq!(
        bf16.bytes_a2a * 2,
        f32_leg.bytes_a2a,
        "bf16 all-to-all traffic must be exactly half the f32 leg"
    );
    assert!(
        bf16.bytes_h2d < f32_leg.bytes_h2d && bf16.bytes_d2h < f32_leg.bytes_d2h,
        "bf16 offload traffic must shrink (KV chunks move as bf16)"
    );

    let rows = vec![f32_leg.clone(), bf16.clone()];
    if !quiet {
        println!(
            "runtime throughput: seq {seq}, {steps} steps, {chunks} chunks, {threads} threads, \
             {sim_gbps} GB/s simulated link"
        );
        println!(
            "{:<7}{:>10}{:>12}{:>10}{:>12}{:>11}{:>11}",
            "bf16", "wall ms", "tokens/s", "overlap", "comm ovl", "slot skew", "slot tail"
        );
        for r in &rows {
            println!(
                "{:<7}{:>10.1}{:>12.0}{:>10.3}{:>12.3}{:>11.3}{:>11.3}",
                r.payload_bf16,
                r.wall_ms,
                r.tokens_per_s,
                r.overlap_fraction,
                r.comm_overlap_fraction,
                r.slot_skew,
                r.slot_tail
            );
        }
    }

    let report = Report {
        bench: "runtime",
        seq,
        steps,
        chunks,
        threads,
        sim_gbps,
        rows,
    };
    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join("BENCH_runtime.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, &body).expect("write BENCH_runtime.json");
    let reparsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_runtime.json parses");
    let has_rows = matches!(
        &reparsed,
        serde_json::Value::Object(entries)
            if entries.iter().any(|(key, val)| {
                key == "rows" && matches!(val, serde_json::Value::Array(_))
            })
    );
    assert!(has_rows, "rows array present");
    println!("BENCH_JSON_OK {}", path.display());

    // Both streams must hide a strictly positive share of their busy time
    // from the rank thread, with f32 and with bf16 payloads.
    for (leg, gate, r) in [
        ("", "RUNTIME_", &f32_leg),
        ("bf16 ", "RUNTIME_BF16_", &bf16),
    ] {
        for (what, name, fraction) in [
            ("copy", "OVERLAP", r.overlap_fraction),
            ("comm", "COMM_OVERLAP", r.comm_overlap_fraction),
        ] {
            if fraction <= 0.0 {
                eprintln!("{gate}{name}_FAIL: {leg}run measured zero compute/{what} overlap");
                std::process::exit(1);
            }
            println!("{gate}{name}_OK {fraction:.4}");
        }
    }
}
