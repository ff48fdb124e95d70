//! One workload in one process: the untraced timed run that yields the
//! end-to-end metrics, and the traced run, counters, probes and checkpoint
//! cycles that yield the per-layer metrics.
//!
//! Closed loop, one client: the next `Trainer::run_steps` call is issued
//! when the previous one returns.

use crate::host::{at_reference, HostProbe};
use crate::json::{field, items, number, object};
use crate::metrics::Values;
use crate::stats::{median, peak_rss_mib, tail};
use crate::workloads::{Workload, WORLD};
use crate::{probes, reduce};
use fpdt_core::runtime::{TrainConfig, TrainReport, Trainer};
use fpdt_model::flops::model_flops_per_step;
use fpdt_trace::Recorder;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Segments run before anything is timed: the first steps fault in the
/// buffers and spawn the kernel pool.
const WARMUP_SEGMENTS: usize = 2;
/// Fewest timed segments of a comparable traced-mode run, however slow
/// the host.
const MIN_TIMED_SEGMENTS: usize = 12;
/// Fresh processes the untraced measurement is spread over.
const LEGS: usize = 4;
/// Fewest timed segments of one leg.
const MIN_LEG_SEGMENTS: usize = 4;
/// Timed segments of the traced run.
const TRACED_SEGMENTS: usize = 8;
/// Checkpoint + resume cycles.
const CKPT_CYCLES: usize = 5;
/// Largest loss difference between FPDT and Ulysses on the same data (the
/// tolerance `tests/integration_training.rs` uses).
const LOSS_TOLERANCE: f32 = 5e-3;
/// Largest deviation of the streaming attention kernel from the reference.
const KERNEL_TOLERANCE: f64 = 1e-4;
/// Step whose loss is reported (0-based; inside every comparable run).
const LOSS_STEP: usize = 12;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    /// Which metrics this run yields (the all-workloads command runs both).
    pub trace: bool,
    /// 3 timed segments, result not comparable with a full run.
    pub smoke: bool,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// `CHECK_FAILED` lines; empty when every output check passed.
    pub failures: Vec<String>,
    /// Per-step milliseconds of every timed segment as the clock read
    /// them, in run order and grouped by the process that ran them — the
    /// samples behind the medians.
    pub step_ms: Vec<Vec<f64>>,
    /// Milliseconds of every host probe of an untraced run, grouped like
    /// `step_ms`: one before set-up, one after it, one after each segment.
    pub probe_ms: Vec<Vec<f64>>,
    /// Percentile `dist.step_ms_tail` stands for (traced runs only).
    pub tail_percentile: Option<f64>,
    /// The first losses of the untraced run, for cross-workload checks.
    pub losses_head: Vec<f32>,
}

/// Output checks. Deterministic and seed-independent: no wall-clock value
/// can fail a run.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.0.push(format!("CHECK_FAILED {name} {}", detail()));
        }
    }
}

/// A `Trainer` plus the bookkeeping of a closed-loop client.
struct Session {
    trainer: Trainer,
    steps_per_segment: usize,
    attempted: u64,
    failed: u64,
}

impl Session {
    /// `Trainer::new` plus the warm-up segments.
    fn start(w: &Workload, cfg: TrainConfig, recorder: Option<&Recorder>) -> Session {
        let mut trainer = Trainer::new(cfg);
        if let Some(rec) = recorder {
            trainer = trainer.with_recorder(rec.clone());
        }
        let mut s = Session {
            trainer,
            steps_per_segment: w.steps_per_segment,
            attempted: 0,
            failed: 0,
        };
        for i in 0..WARMUP_SEGMENTS {
            let _span = recorder.map(|r| r.span(&format!("bench.warmup.{i}")));
            s.segment();
        }
        s
    }

    /// One request: a `run_steps` call of the workload's segment length.
    /// Returns its wall seconds and whether it succeeded; an `Err` or a
    /// panic counts as failed.
    fn segment(&mut self) -> (f64, bool) {
        self.attempted += 1;
        let t0 = Instant::now();
        let ok = matches!(
            catch_unwind(AssertUnwindSafe(|| self
                .trainer
                .run_steps(self.steps_per_segment))),
            Ok(Ok(()))
        );
        if !ok {
            self.failed += 1;
        }
        (t0.elapsed().as_secs_f64(), ok)
    }

    /// Timed segments until `deadline`, at least `min` of them.
    fn timed(&mut self, deadline: Instant, min: usize) -> Timed {
        let mut t = Timed::default();
        while t.walls.len() < min || Instant::now() < deadline {
            let (wall, ok) = self.segment();
            t.walls.push(wall);
            t.ok.push(ok);
        }
        t
    }
}

#[derive(Default)]
struct Timed {
    /// Wall seconds of every timed segment, failed ones included.
    walls: Vec<f64>,
    /// Whether each of them succeeded.
    ok: Vec<bool>,
}

impl Timed {
    fn succeeded(&self) -> usize {
        self.ok.iter().filter(|&&ok| ok).count()
    }
}

/// Segment wall seconds as milliseconds per optimizer step.
fn per_step_ms(walls: &[f64], steps_per_segment: usize) -> Vec<f64> {
    walls
        .iter()
        .map(|w| w * 1e3 / steps_per_segment as f64)
        .collect()
}

/// Exact traffic counters of a `TrainReport` (rank 0), in the order of
/// [`COUNTER_METRICS`].
type Counters = [u64; 6];

/// The per-step metric each counter becomes.
const COUNTER_METRICS: [&str; 6] = [
    "comm.bytes_sent_per_step",
    "comm.msgs_per_step",
    "offload.puts_per_step",
    "offload.fetches_per_step",
    "offload.bytes_d2h_per_step",
    "offload.bytes_h2d_per_step",
];

fn counters(r: &TrainReport) -> Counters {
    [
        r.comm.total_bytes_sent(),
        r.comm.ops.iter().map(|(_, s)| s.sends).sum(),
        r.host.offloads,
        r.host.fetches,
        r.host.bytes_offloaded,
        r.host.bytes_fetched,
    ]
}

/// Counter growth from `earlier` to `later`.
fn since(later: Counters, earlier: Counters) -> Counters {
    std::array::from_fn(|i| later[i] - earlier[i])
}

fn mean(v: &[f32]) -> f32 {
    v.iter().sum::<f32>() / v.len() as f32
}

/// Checks every untraced session's losses and host-pool traffic must pass.
fn check_training(w: &Workload, losses: &[f32], puts: u64, checks: &mut Checks) {
    checks.require("loss_finite", losses.iter().all(|l| l.is_finite()), || {
        format!("{losses:?}")
    });
    let window = (losses.len() / 2).min(5);
    let (first, last) = (&losses[..window], &losses[losses.len() - window..]);
    checks.require(
        "loss_decreases",
        window > 0 && mean(last) < mean(first),
        || format!("first {first:?} last {last:?}"),
    );
    let offloads = matches!(w.mode, fpdt_core::runtime::Mode::Fpdt { offload: true, .. });
    checks.require("offload_puts", (puts > 0) == offloads, || {
        format!("{puts} puts, offload {offloads}")
    });
}

/// FPDT is a pure system optimization: the other mode, on the same model,
/// sequence and seed, must trace the same loss curve.
fn check_reference(w: &Workload, seed: u64, losses: &[f32], steps: usize, checks: &mut Checks) {
    let steps = steps.min(losses.len());
    let mut reference = Trainer::new(w.reference_config(seed));
    let ran = catch_unwind(AssertUnwindSafe(|| reference.run_steps(steps)));
    checks.require("reference_runs", matches!(ran, Ok(Ok(()))), || {
        "the reference mode failed".to_string()
    });
    let theirs = reference.report().losses;
    let worst = losses
        .iter()
        .zip(&theirs)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    checks.require(
        "matches_reference",
        theirs.len() == steps && worst < LOSS_TOLERANCE,
        || {
            format!(
                "{} of {steps} steps, worst difference {worst:e}",
                theirs.len()
            )
        },
    );
}

/// Where this run may write: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// The record one run leaves behind: `<workload>.e2e.json` with tracing
/// off, `<workload>.layers.json` from the traced mode.
pub fn record_path(w: &Workload, trace: bool) -> PathBuf {
    let mode = if trace { "layers" } else { "e2e" };
    out_dir().join(format!("{}.{mode}.json", w.name))
}

/// What one leg measured, as it crosses the process boundary.
struct Leg {
    /// Process start to the end of the second warm-up segment, less the
    /// first host probe.
    setup_s: f64,
    /// Wall seconds of every timed segment, and whether it succeeded.
    walls: Vec<f64>,
    ok: Vec<bool>,
    /// Wall seconds of the host probes: before set-up, after it, and after
    /// each timed segment (`walls.len() + 2` of them).
    probes: Vec<f64>,
    attempted: u64,
    failed: u64,
    peak_rss_mib: f64,
    losses: Vec<f32>,
    puts: u64,
}

impl Leg {
    fn to_json(&self) -> Value {
        let floats = |v: &[f64]| Value::Array(v.iter().copied().map(Value::Float).collect());
        let losses: Vec<f64> = self.losses.iter().map(|&l| f64::from(l)).collect();
        object(vec![
            ("setup_s", Value::Float(self.setup_s)),
            ("walls", floats(&self.walls)),
            ("probes", floats(&self.probes)),
            (
                "ok",
                Value::Array(self.ok.iter().copied().map(Value::Bool).collect()),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("peak_rss_mib", Value::Float(self.peak_rss_mib)),
            // f32 -> f64 is exact, so the bits survive the round trip
            ("losses", floats(&losses)),
            ("puts", Value::UInt(self.puts)),
        ])
    }

    fn from_json(v: &Value) -> Option<Leg> {
        let num = |key: &str| field(v, key).and_then(number);
        let list =
            |key: &str| -> Option<Vec<f64>> { items(field(v, key)?).iter().map(number).collect() };
        Some(Leg {
            setup_s: num("setup_s")?,
            walls: list("walls")?,
            probes: list("probes")?,
            ok: items(field(v, "ok")?)
                .iter()
                .map(|b| *b == Value::Bool(true))
                .collect(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            peak_rss_mib: num("peak_rss_mib")?,
            losses: list("losses")?.into_iter().map(|l| l as f32).collect(),
            puts: num("puts")? as u64,
        })
    }
}

impl Leg {
    /// Set-up seconds at the reference host speed.
    fn setup_at_reference(&self) -> f64 {
        at_reference(self.setup_s, self.probes[0], self.probes[1])
    }

    /// Wall seconds of every timed segment at the reference host speed:
    /// each is scaled by the probes right before and right after it.
    fn walls_at_reference(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(self.probes[1..].windows(2))
            .map(|(&wall, p)| at_reference(wall, p[0], p[1]))
            .collect()
    }
}

/// The body of a `--leg` process: set-up as a user pays it — a fresh
/// process, from its first instruction to the end of the second warm-up
/// segment — then timed segments for `millis`, a host probe between every
/// two of them.
pub fn leg(w: &Workload, seed: u64, millis: u64, min_segments: usize, started: Instant) {
    let mut probe = HostProbe::new(WORLD);
    // once untimed: the first run faults its buffers in
    probe.run();
    let before_probe = started.elapsed();
    let mut probes = vec![probe.run()];
    let resumed = Instant::now();
    let mut session = Session::start(w, w.config(seed), None);
    let setup_s = (before_probe + resumed.elapsed()).as_secs_f64();
    probes.push(probe.run());
    let deadline = Instant::now() + Duration::from_millis(millis);
    let mut timed = Timed::default();
    while timed.walls.len() < min_segments || Instant::now() < deadline {
        let (wall, ok) = session.segment();
        timed.walls.push(wall);
        timed.ok.push(ok);
        probes.push(probe.run());
    }
    let report = session.trainer.report();
    let leg = Leg {
        setup_s,
        walls: timed.walls,
        ok: timed.ok,
        probes,
        attempted: session.attempted,
        failed: session.failed,
        peak_rss_mib: peak_rss_mib(),
        losses: report.losses,
        puts: report.host.offloads,
    };
    println!(
        "{}",
        serde_json::to_string(&leg.to_json()).expect("render the leg")
    );
}

fn spawn_leg(w: &Workload, seed: u64, millis: u64, min_segments: usize) -> Leg {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--leg", &millis.to_string()])
        .args(["--leg-segments", &min_segments.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a leg");
    assert!(out.status.success(), "a leg died: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(text.trim())
        .ok()
        .as_ref()
        .and_then(Leg::from_json)
        .unwrap_or_else(|| panic!("a leg printed no record: {text}"))
}

pub fn run(w: &Workload, args: &RunArgs) -> Outcome {
    if args.trace {
        per_layer(w, args)
    } else {
        end_to_end(w, args)
    }
}

/// Tracing off: throughput, step time, set-up and memory.
///
/// The measurement is spread over `LEGS` fresh processes, one after the
/// other, each setting up and then timing its share of `--seconds`. A
/// process keeps the speed its memory layout and its moment on the host
/// gave it (measured: six-second runs whose *fastest* segments were 8%
/// apart), so one process per run would report that draw, not the code.
///
/// Every time is restated at the reference host speed before it is pooled
/// (see `host.rs`): this host runs identical work up to 1.7x slower for
/// minutes at a time, and the raw clock follows the host, not the code.
fn end_to_end(w: &Workload, args: &RunArgs) -> Outcome {
    let k = w.steps_per_segment;
    let legs: Vec<Leg> = if args.smoke {
        vec![spawn_leg(w, args.seed, 0, 3)]
    } else {
        let millis = args.seconds * 1000 / LEGS as u64;
        (0..LEGS)
            .map(|_| spawn_leg(w, args.seed, millis, MIN_LEG_SEGMENTS))
            .collect()
    };

    let mut values = Values::default();
    let each = |f: fn(&Leg) -> f64| legs.iter().map(f).collect::<Vec<f64>>();
    values.set("setup_s", median(&each(Leg::setup_at_reference)));
    values.set("peak_rss_mb", median(&each(|l| l.peak_rss_mib)));
    let walls: Vec<f64> = legs.iter().flat_map(Leg::walls_at_reference).collect();
    let succeeded: usize = legs
        .iter()
        .map(|l| l.ok.iter().filter(|&&ok| ok).count())
        .sum();
    // a failed segment costs its time and yields no tokens
    values.set(
        "tokens_per_s",
        (w.seq * k * succeeded) as f64 / walls.iter().sum::<f64>(),
    );
    values.set("step_ms_p50", median(&per_step_ms(&walls, k)));

    let mut checks = Checks::default();
    let first = &legs[0];
    for leg in &legs {
        check_training(w, &leg.losses, leg.puts, &mut checks);
        // same seed, same inputs: every leg retraces the first one
        let same = leg
            .losses
            .iter()
            .zip(&first.losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.require("legs_agree_bitwise", same, || {
            format!("{:?} vs {:?}", leg.losses, first.losses)
        });
    }
    let reference_steps = if args.smoke { 2 } else { 4 };
    check_reference(w, args.seed, &first.losses, reference_steps, &mut checks);
    Outcome {
        attempted: legs.iter().map(|l| l.attempted).sum(),
        failed: legs.iter().map(|l| l.failed).sum(),
        values,
        failures: checks.0,
        step_ms: legs.iter().map(|l| per_step_ms(&l.walls, k)).collect(),
        probe_ms: legs.iter().map(|l| per_step_ms(&l.probes, 1)).collect(),
        tail_percentile: None,
        losses_head: first.losses.iter().copied().take(20).collect(),
    }
}

/// The untraced session of a traced-mode run: exact counters (source C)
/// as deltas over its timed segments, and the losses the traced run must
/// reproduce.
fn untraced_counters(
    w: &Workload,
    args: &RunArgs,
    plain: &mut Session,
    values: &mut Values,
) -> (Timed, Counters, TrainReport) {
    let before = plain.trainer.report();
    let (window, min) = if args.smoke {
        (Duration::ZERO, 3)
    } else {
        // The traced run, the probes and the checks need their share of
        // the run's time; the counters and the tail need no more than this.
        (
            Duration::from_millis(args.seconds * 625),
            MIN_TIMED_SEGMENTS,
        )
    };
    let timed = plain.timed(Instant::now() + window, min);
    let report = plain.trainer.report();
    let steps = (timed.succeeded() * w.steps_per_segment) as f64;
    let per_run = since(counters(&report), counters(&before));
    for (name, count) in COUNTER_METRICS.into_iter().zip(per_run) {
        values.set(name, count as f64 / steps);
    }
    values.set("comm.retries", report.comm.retries as f64);
    values.set(
        "comm.recv_wait_ms_per_step",
        (report.comm.recv_wait - before.comm.recv_wait).as_secs_f64() * 1e3 / steps,
    );
    values.set("offload.peak_bytes", report.host.peak_bytes as f64);
    values.set("dist.opt_state_bytes", report.opt_state_bytes as f64);
    let loss_step = LOSS_STEP.min(report.losses.len() - 1);
    values.set("gpt.loss_at_step_12", f64::from(report.losses[loss_step]));
    (timed, per_run, report)
}

/// `CKPT_CYCLES` of `Trainer::checkpoint` + `Trainer::resume`, then one
/// more segment on both sessions: the resumed one must continue bitwise.
fn checkpoint_cycles(
    w: &Workload,
    rec: &Recorder,
    plain: &mut Session,
    values: &mut Values,
    checks: &mut Checks,
) {
    let dir = out_dir().join(format!("ckpt-{}-{}", w.name, std::process::id()));
    let (mut save_ms, mut resume_ms) = (Vec::new(), Vec::new());
    let mut resumed = None;
    for _ in 0..CKPT_CYCLES {
        let t0 = Instant::now();
        let saved = {
            let _s = rec.span("bench.ckpt.save");
            plain.trainer.checkpoint(&dir)
        };
        save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        checks.require("ckpt_saves", saved.is_ok(), || format!("{saved:?}"));
        let t0 = Instant::now();
        let loaded = {
            let _s = rec.span("bench.ckpt.resume");
            Trainer::resume(&dir)
        };
        resume_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match loaded {
            Ok(t) => resumed = Some(t),
            Err(e) => checks.require("ckpt_resumes", false, || e.to_string()),
        }
    }
    values.set("ckpt.save_ms", median(&save_ms));
    values.set("ckpt.resume_ms", median(&resume_ms));
    let shard_bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    values.set("ckpt.shard_bytes", shard_bytes as f64);
    // best effort: a leftover directory is ignored by git and harmless
    let _ = std::fs::remove_dir_all(&dir);

    plain.segment();
    if let Some(mut resumed) = resumed {
        let k = w.steps_per_segment;
        let ran = catch_unwind(AssertUnwindSafe(|| resumed.run_steps(k)));
        let (ours, theirs) = (plain.trainer.report().losses, resumed.report().losses);
        let same = ours.len() == theirs.len()
            && ours
                .iter()
                .zip(&theirs)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.require("resume_bitwise", matches!(ran, Ok(Ok(()))) && same, || {
            format!(
                "original ends {:?}, resumed ends {:?}",
                &ours[ours.len().saturating_sub(k)..],
                &theirs[theirs.len().saturating_sub(k)..]
            )
        });
    }
}

/// Everything the per-layer metrics need: an untraced session (counters,
/// step-time tail, the baseline of the tracing overhead), a traced session
/// of the same configuration and segment pattern, checkpoint cycles and
/// the probes.
fn per_layer(w: &Workload, args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();
    let mut values = Values::default();
    let k = w.steps_per_segment;
    // The benchmark's own spans and the runtime's go to one recorder.
    let rec = Recorder::new();

    let mut plain = Session::start(w, w.config(args.seed), None);
    let (timed, per_run, report) = untraced_counters(w, args, &mut plain, &mut values);
    check_training(w, &report.losses, report.host.offloads, &mut checks);

    // -- traced: a fresh Trainer. Each traced segment runs right after an
    // untraced one, so the overhead compares neighbours in time and the
    // host's drift cancels.
    let mut traced = {
        let _s = rec.span("bench.setup");
        Session::start(w, w.config(args.seed), Some(&rec))
    };
    let traced_before = counters(&traced.trainer.report());
    let pairs = TRACED_SEGMENTS.min(timed.walls.len());
    let mut windows = Vec::with_capacity(pairs);
    let mut paired_ms = Vec::with_capacity(pairs);
    let mut overheads = Vec::with_capacity(pairs);
    let mut traced_ok = 0usize;
    for i in 0..pairs {
        let (plain_wall, _) = plain.segment();
        let start_us = rec.now_us();
        let _s = rec.span(&format!("bench.segment.{i}"));
        let (wall, ok) = traced.segment();
        traced_ok += usize::from(ok);
        windows.push((start_us, start_us + wall * 1e6));
        paired_ms.push(plain_wall * 1e3 / k as f64);
        overheads.push(100.0 * (wall / plain_wall - 1.0));
    }
    values.set("dist.trace_overhead_pct", median(&overheads));
    let traced_losses = traced.trainer.report().losses;
    checks.require(
        "traced_losses_bitwise",
        !traced_losses.is_empty()
            && traced_losses.len() <= report.losses.len()
            && traced_losses
                .iter()
                .zip(&report.losses)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        || format!("traced {traced_losses:?}, untraced {:?}", report.losses),
    );
    let traced_run = since(counters(&traced.trainer.report()), traced_before);
    // equal per segment, compared without dividing
    let scaled = |c: Counters, by: usize| c.map(|x| x * by as u64);
    checks.require(
        "traced_counters_equal",
        scaled(traced_run, timed.succeeded()) == scaled(per_run, traced_ok),
        || {
            format!(
                "traced {traced_run:?} over {traced_ok} segments, untraced {per_run:?} over {}",
                timed.succeeded()
            )
        },
    );
    let traced_ms: Vec<f64> = windows
        .iter()
        .map(|(a, b)| (b - a) / 1e3 / k as f64)
        .collect();
    let all_records = rec.records();
    values.absorb(reduce::reduce(
        &reduce::within(&all_records, &windows),
        &reduce::Norm {
            ranks: WORLD,
            steps: traced_ok * k,
            chunks: w.chunks(),
            step_ms: traced_ms.iter().sum::<f64>() / traced_ms.len() as f64,
        },
    ));
    let lead_ins: Vec<f64> = windows
        .iter()
        .filter_map(|&window| reduce::lead_in_us(&all_records, "block.", window))
        .collect();
    checks.require("traced_blocks_recorded", !lead_ins.is_empty(), || {
        "no block.* span in any traced segment".to_string()
    });
    values.set(
        "dist.segment_spinup_ms",
        if lead_ins.is_empty() {
            0.0
        } else {
            median(&lead_ins) / 1e3
        },
    );
    let (traced_attempted, traced_failed) = (traced.attempted, traced.failed);
    drop(traced);

    // every untraced timed segment: the window's and the paired ones
    let mut step_ms = per_step_ms(&timed.walls, k);
    step_ms.extend(paired_ms);
    let step_ms_p50 = median(&step_ms);
    let (tail_ms, tail_percentile) = tail(&step_ms);
    values.set("dist.step_ms_p50", step_ms_p50);
    values.set("dist.step_ms_tail", tail_ms);

    checkpoint_cycles(w, &rec, &mut plain, &mut values, &mut checks);

    // -- direct calls into each layer
    values.absorb(probes::run(w, args.seed, &rec));
    checks.require(
        "kernel_matches_reference",
        values.get("attention.max_abs_err") < KERNEL_TOLERANCE,
        || format!("max abs err {:e}", values.get("attention.max_abs_err")),
    );
    let flops = model_flops_per_step(&w.model(), w.seq as u64);
    let peak = WORLD as f64 * values.get("tensor.gemm_gflops") * 1e9;
    values.set("dist.host_mfu", flops / (step_ms_p50 / 1e3) / peak);

    let reference_steps = if args.smoke { 2 } else { 8 };
    check_reference(w, args.seed, &report.losses, reference_steps, &mut checks);

    std::fs::write(
        out_dir().join(format!("{}.trace.json", w.name)),
        rec.chrome_trace_json(),
    )
    .expect("write the Chrome trace");
    Outcome {
        attempted: plain.attempted + traced_attempted,
        failed: plain.failed + traced_failed,
        values,
        failures: checks.0,
        step_ms: vec![step_ms],
        probe_ms: Vec::new(),
        tail_percentile: Some(tail_percentile),
        losses_head: report.losses.iter().copied().take(20).collect(),
    }
}
