//! The determinism oracle: FPDT is a pure system optimisation (paper
//! §5.6, Figure 14), checked over generated points of the whole knob
//! space instead of one knob at a time.
//!
//! A case is a [`Knobs`] value: the strategy (one device, `Ulysses`,
//! `Ring`, FPDT at 2 or 4 chunks with offload on or off), the world, bf16
//! payloads, the simulated link, the kernel thread budget (`par_threshold`
//! 1, so every kernel takes the pool path), activation checkpointing,
//! ZeRO-1, the `run_steps` segment cuts, live or respawned sessions, a
//! checkpoint/resume point through disk, a chain of resizes, and injected
//! faults within the retry budget. Every knob is set per case, so no
//! ambient `FPDT_*` variable reaches a run. Each case trains through
//! [`Trainer`] to a [`Fingerprint`], and the contract is a set of
//! relations between fingerprints:
//!
//! * threads, link, segment cuts, respawn, checkpoint/resume and faults
//!   leave the whole fingerprint unchanged (faults move only
//!   `CommStats::faults` and `retries`, one of each per armed fault and
//!   call), live sessions keep running through a checkpoint's export,
//!   every spawn builds each rank once, and the cases run two at a time
//!   under different kernel budgets in one process;
//! * offload on vs off (f32) leaves losses, gradients and `CommStats`
//!   unchanged, and `PoolStats` is zero exactly when offload is off;
//! * activation checkpointing and ZeRO-1 leave losses and gradients
//!   bitwise unchanged against the same mode's plain run; AC adds exactly
//!   one attention forward's traffic per layer and step, ZeRO-1 adds the
//!   parameter all-gather and shrinks rank 0's moments to its shard;
//! * bf16 payloads leave one-device runs and `Ring` unchanged (neither
//!   moves a payload through the bf16 paths);
//! * one device is one run: at world 1, `Ulysses`, `Ring` and FPDT at one
//!   chunk without offload have the same fingerprint, no collective moves
//!   a byte (`CommStats` has no op), the pool stays untouched, and the
//!   same faults fire and replay;
//! * a chain of resizes lands within 2e-3 of a fresh run at the final
//!   geometry, and commutes bitwise with checkpoint/resume (the first
//!   relation, for a case that has both).
//!
//! Anti-vacuity: gradients are nonzero, offloaded runs fetch chunks, the
//! Ulysses paths move all-to-all bytes, and another seed or bf16 payloads
//! change the loss bits. A failing case prints its `Knobs`.

mod common;

use common::forced_ctx;
use fpdt_comm::{run_group, CommStats, OpStats};
use fpdt_core::chunk::ChunkPlan;
use fpdt_core::offload::PoolStats;
use fpdt_core::runtime::exec::{AttentionExec, DistAttention, RingAttentionExec};
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::runtime::{Mode, RuntimeOptions, TrainConfig, Trainer};
use fpdt_model::config::ModelConfig;
use fpdt_tensor::Tensor;
use fpdt_trace::Recorder;
use proptest::TestRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Optimizer steps per case (`grad_accum` 1, so one micro-step each).
const STEPS: usize = 4;
/// Global sequence length: divides into 4 ranks x 4 chunks.
const SEQ: usize = 32;
/// A priced link, GB/s: transfers of the fixture take microseconds.
const PRICED_GBPS: f64 = 1.0;
/// Generated cases, on top of the fixed corners.
const CASES: u64 = 32;

/// Two layers, 4 heads of width 4: the heads divide across 4 ranks.
fn model() -> ModelConfig {
    ModelConfig::tiny(2, 16, 4, 32)
}

/// Strategy `i` of 7 on `world` ranks: one device (`Ulysses` at world
/// 1), `Ulysses`, `Ring`, then FPDT at 2 and 4 chunks, offload off and on.
fn strategy(i: usize, world: usize) -> (Mode, usize) {
    let mode = match i {
        0 | 1 => Mode::Ulysses,
        2 => Mode::Ring,
        _ => Mode::Fpdt {
            chunks: 2 << ((i - 3) / 2),
            offload: i.is_multiple_of(2),
        },
    };
    (mode, if i == 0 { 1 } else { world })
}

/// The world after a resize: 2 and 4 trade places, and one device stays
/// one device.
fn resized(world: usize) -> usize {
    match world {
        1 => 1,
        _ => 6 - world,
    }
}

/// One point of the knob space.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Knobs {
    seed: u64,
    mode: Mode,
    world: usize,
    payload_bf16: bool,
    sim_gbps: f64,
    /// Kernel thread budget of the calling thread, `par_threshold` 1.
    threads: usize,
    activation_checkpoint: bool,
    zero_shard: bool,
    /// Extra `run_steps` boundaries: bit `b - 1` cuts after step `b`.
    cuts: u8,
    /// Shut the sessions down after every call, so each call spawns.
    respawn: bool,
    /// Checkpoint to disk after this step, drop the Trainer and resume.
    resume_at: Option<usize>,
    /// Resize points: bit `b - 1` flips the world between 2 and 4 after
    /// step `b` ([`resized`]).
    resizes: u8,
    /// Transient faults armed per `run_steps` call.
    fault_inject: usize,
    /// Replay budget, at least `fault_inject`.
    comm_retries: usize,
}

impl Knobs {
    /// The plain run every invariance relation compares against: one
    /// thread, a free link, one call on live sessions, no faults. Keeps
    /// everything that changes the trajectory or the counters.
    fn canon(self) -> Knobs {
        Knobs {
            threads: 1,
            sim_gbps: 0.0,
            cuts: 0,
            respawn: false,
            resume_at: None,
            fault_inject: 0,
            comm_retries: 0,
            ..self
        }
    }

    fn runtime(&self) -> RuntimeOptions {
        RuntimeOptions {
            payload_bf16: self.payload_bf16,
            comm_retries: self.comm_retries,
            fault_inject: self.fault_inject,
            sim_gbps: self.sim_gbps,
        }
    }

    fn config(&self) -> TrainConfig {
        TrainConfig {
            model: model(),
            world: self.world,
            seq: SEQ,
            steps: STEPS,
            lr: 3e-3,
            seed: self.seed,
            mode: self.mode,
            zero_shard: self.zero_shard,
            activation_checkpoint: self.activation_checkpoint,
            grad_accum: 1,
            warmup_steps: 0,
            runtime: self.runtime(),
        }
    }

    /// The `run_steps` boundaries, ascending, ending at [`STEPS`].
    fn boundaries(&self) -> Vec<usize> {
        (1..=STEPS)
            .filter(|&b| {
                b == STEPS
                    || self.cuts & (1 << (b - 1)) != 0
                    || self.resume_at == Some(b)
                    || self.resizes_after(b)
            })
            .collect()
    }

    fn resizes_after(&self, step: usize) -> bool {
        step < STEPS && self.resizes & (1 << (step - 1)) != 0
    }

    /// `(steps, world)` per geometry the run trains at, in order.
    fn segments(&self) -> Vec<(usize, usize)> {
        let (mut world, mut start, mut segments) = (self.world, 0, Vec::new());
        for step in 1..=STEPS {
            if step == STEPS || self.resizes_after(step) {
                segments.push((step - start, world));
                (world, start) = (resized(world), step);
            }
        }
        segments
    }

    fn sample(rng: &mut TestRng) -> Knobs {
        let world = [2, 4][rng.below(2)];
        let fault_inject = rng.below(3);
        let (mode, world) = strategy(rng.below(7), world);
        Knobs {
            seed: 42,
            mode,
            world,
            payload_bf16: rng.below(2) == 0,
            sim_gbps: [0.0, PRICED_GBPS][rng.below(2)],
            threads: [1, 2, 8][rng.below(3)],
            activation_checkpoint: rng.below(3) == 0,
            zero_shard: rng.below(3) == 0,
            cuts: rng.below(8) as u8,
            respawn: rng.below(2) == 0,
            resume_at: (rng.below(2) == 0).then(|| 1 + rng.below(STEPS - 1)),
            resizes: if rng.below(3) == 0 {
                rng.below(8) as u8
            } else {
                0
            },
            fault_inject,
            comm_retries: fault_inject + rng.below(2),
        }
    }
}

/// What a run must reproduce: loss bits, the final window's gradient
/// bits, rank 0's traffic and host-pool counters, and its moment bytes.
/// `CommStats` equality leaves out faults, retries and wait time; `run`
/// checks those against the armed faults.
#[derive(Clone)]
struct Fingerprint {
    losses: Vec<u32>,
    grads: Vec<u32>,
    comm: CommStats,
    host: PoolStats,
    opt_state_bytes: usize,
}

fn fresh_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fpdt-oracle-{}-{n}", std::process::id()))
}

/// Trains `k` to its fingerprint under its kernel context, checking the
/// session bookkeeping on the way: one build per rank and spawn, one
/// fault and one replay per armed fault and call.
fn run(k: &Knobs) -> Fingerprint {
    forced_ctx(k.threads).enter(|| {
        let rec = Recorder::new();
        let mut trainer = Trainer::new(k.config()).with_recorder(rec.clone());
        let (mut at, mut calls, mut spawned_ranks) = (0, 0, 0);
        let (mut world, mut spawns) = (k.world, true);
        for end in k.boundaries() {
            if spawns {
                spawned_ranks += world;
            }
            trainer.run_steps(end - at).expect("faults within budget");
            (at, calls, spawns) = (end, calls + 1, k.respawn);
            if k.resume_at == Some(at) {
                let dir = fresh_dir();
                trainer.checkpoint(&dir).expect("checkpoint");
                drop(trainer);
                trainer = Trainer::resume(&dir).expect("resume");
                let _ = std::fs::remove_dir_all(&dir);
                assert_eq!(trainer.step(), at, "resume continues at the saved step");
                trainer = trainer.with_recorder(rec.clone());
                trainer.set_runtime(k.runtime());
                spawns = true;
            } else if k.respawn {
                trainer.set_runtime(k.runtime());
            } else if at < STEPS {
                // Live sessions keep running through a checkpoint's export.
                let dir = fresh_dir();
                trainer.checkpoint(&dir).expect("checkpoint");
                let _ = std::fs::remove_dir_all(&dir);
            }
            if k.resizes_after(at) {
                world = resized(world);
                trainer.resize(world);
                spawns = true;
            }
        }
        assert_eq!(
            rec.count("segment.build"),
            spawned_ranks,
            "one build per rank and spawn"
        );
        let report = trainer.report();
        // one-rank runs arm faults too: their collectives check for one
        // before they find no peer to talk to
        let armed = (k.fault_inject * calls) as u64;
        assert_eq!(
            (report.comm.faults, report.comm.retries),
            (armed, armed),
            "faults, replays"
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        Fingerprint {
            losses: bits(&report.losses),
            grads: bits(&report.grads),
            comm: report.comm,
            host: report.host,
            opt_state_bytes: report.opt_state_bytes,
        }
    })
}

/// Fingerprints of the canonical runs, shared by the cases of one thread.
#[derive(Default)]
struct Cache(Vec<(Knobs, Fingerprint)>);

impl Cache {
    fn get(&mut self, k: Knobs) -> Fingerprint {
        let k = k.canon();
        if let Some((_, fp)) = self.0.iter().find(|(seen, _)| *seen == k) {
            return fp.clone();
        }
        let fp = run(&k);
        self.0.push((k, fp.clone()));
        fp
    }
}

/// Rank 0's traffic and host-pool counters of one attention forward of
/// one layer of `k`'s strategy on `ranks` ranks: what activation
/// checkpointing repeats per layer and step.
fn one_forward(k: &Knobs, ranks: usize) -> (CommStats, PoolStats) {
    let (chunks, offload) = match k.mode {
        Mode::Ulysses | Mode::Ring => (1, false),
        Mode::Fpdt { chunks, offload } => (chunks, offload),
    };
    let model = model();
    let d = model.hidden / model.heads;
    let q = Tensor::zeros(&[SEQ / ranks, model.heads, d]);
    let kv = Tensor::zeros(&[SEQ / ranks, model.kv_heads, d]);
    let opts = k.canon().runtime();
    let mut per_rank = run_group(ranks, |comm| {
        let comm = Arc::new(comm);
        let plan = ChunkPlan::new(SEQ, ranks, chunks).expect("valid plan");
        let pos = plan.local_positions(comm.rank());
        let host = if k.mode == Mode::Ring {
            let mut ring = RingAttentionExec::new(&comm, SEQ);
            ring.forward(0, &q, &kv, &kv, &pos).expect("ring forward");
            PoolStats::default()
        } else {
            let mut exec = DistAttention::with_opts(Arc::clone(&comm), plan, offload, opts);
            exec.forward(0, &q, &kv, &kv, &pos).expect("forward");
            exec.host_stats()
        };
        (comm.stats(), host)
    });
    per_rank.swap_remove(0)
}

/// `base` with `extra` added `times` times, op by op.
fn plus(base: &CommStats, extra: &CommStats, times: usize) -> CommStats {
    let mut sum = base.clone();
    for _ in 0..times {
        sum.merge(extra);
    }
    sum
}

/// The cumulative host-pool counters (residency and its high-water mark
/// are not traffic).
fn moved(h: &PoolStats) -> [u64; 4] {
    [h.offloads, h.fetches, h.bytes_offloaded, h.bytes_fetched]
}

fn assert_same_numerics(a: &Fingerprint, b: &Fingerprint, what: &str) {
    assert_eq!(a.losses, b.losses, "{what}: loss bits differ");
    let first = a.grads.iter().zip(&b.grads).position(|(x, y)| x != y);
    assert!(
        a.grads.len() == b.grads.len() && first.is_none(),
        "{what}: gradient bits differ, first at {first:?}"
    );
}

fn assert_same(a: &Fingerprint, b: &Fingerprint, what: &str) {
    assert_same_numerics(a, b, what);
    assert_eq!(a.comm, b.comm, "{what}: comm traffic differs");
    assert_eq!(a.host, b.host, "{what}: pool counters differ");
    assert_eq!(
        a.opt_state_bytes, b.opt_state_bytes,
        "{what}: moments differ"
    );
}

/// Checks every relation `k` takes part in.
fn check(k: &Knobs, cache: &mut Cache) {
    let fp = &run(k);
    let layers = model().layers;
    let params = GptModel::param_count_of(&model()).expect("fixture size");

    // Threads, link, cuts, respawn, resume and faults are invisible.
    assert_same(fp, &cache.get(*k), "the system knobs");

    // Anti-vacuity.
    assert_eq!(fp.losses.len(), STEPS);
    assert!(fp.grads.iter().any(|&g| g != 0), "all-zero gradients");
    if k.world > 1 && matches!(k.mode, Mode::Ulysses | Mode::Fpdt { .. }) {
        assert!(
            fp.comm.op("all_to_all").is_some_and(|o| o.bytes_sent > 0),
            "no all-to-all traffic"
        );
    }

    // Offload is a placement: same numbers and wire traffic, and the pool
    // is touched exactly when it is on.
    let offload = matches!(k.mode, Mode::Fpdt { offload: true, .. });
    assert_eq!(
        fp.host.fetches > 0,
        offload,
        "only an offloaded run fetches"
    );
    if !offload {
        assert_eq!(fp.host, PoolStats::default(), "the pool was touched");
    }
    if let (Mode::Fpdt { chunks, offload }, false) = (k.mode, k.payload_bf16) {
        let other = cache.get(Knobs {
            mode: Mode::Fpdt {
                chunks,
                offload: !offload,
            },
            ..*k
        });
        assert_same_numerics(fp, &other, "offload on vs off");
        assert_eq!(fp.comm, other.comm, "offload on vs off: comm traffic");
        assert_eq!(fp.opt_state_bytes, other.opt_state_bytes);
    }

    // bf16 payloads are a no-op where no payload goes through them.
    if k.payload_bf16 && (k.world == 1 || k.mode == Mode::Ring) {
        let f32_run = cache.get(Knobs {
            payload_bf16: false,
            ..*k
        });
        assert_same(fp, &f32_run, "bf16 in a bf16-free mode");
    }

    // One device is one run, whatever the strategy: nothing leaves the
    // rank, and the other strategies reproduce the fingerprint under the
    // same knobs, pool counters included (`run` checks that the same
    // faults fired and replayed).
    if k.world == 1 {
        assert!(fp.comm.ops.is_empty(), "a one-rank run sent: {:?}", fp.comm);
        let one_chunk = Mode::Fpdt {
            chunks: 1,
            offload: false,
        };
        for mode in [Mode::Ulysses, Mode::Ring, one_chunk] {
            if mode != k.mode {
                let other = run(&Knobs { mode, ..*k });
                assert_same(fp, &other, &format!("one device: {mode:?} vs {:?}", k.mode));
            }
        }
    }

    // Activation checkpointing: the same numbers, plus one forward's
    // traffic per layer and step.
    if k.activation_checkpoint {
        let plain = cache.get(Knobs {
            activation_checkpoint: false,
            ..*k
        });
        assert_same_numerics(fp, &plain, "AC vs plain");
        assert_eq!(fp.opt_state_bytes, plain.opt_state_bytes);
        let (mut comm, mut host) = (plain.comm.clone(), moved(&plain.host));
        for (steps, world) in k.segments() {
            let (fwd_comm, fwd_host) = one_forward(k, world);
            comm = plus(&comm, &fwd_comm, steps * layers);
            for (total, one) in host.iter_mut().zip(moved(&fwd_host)) {
                *total += (steps * layers) as u64 * one;
            }
        }
        assert_eq!(fp.comm, comm, "AC traffic is not plain + one forward");
        assert_eq!(
            moved(&fp.host),
            host,
            "AC pool traffic is not plain + one forward"
        );
    }

    // ZeRO-1: the same numbers, plus the parameter all-gather; rank 0
    // keeps its shard of the moments. Rank 0 sends its shard to each peer
    // and receives theirs, the rest of the parameters: its own shard is
    // not a message.
    if k.zero_shard {
        let plain = cache.get(Knobs {
            zero_shard: false,
            ..*k
        });
        assert_same_numerics(fp, &plain, "ZeRO-1 vs dense");
        let mut comm = plain.comm.clone();
        let mut ranks = 1;
        for (steps, world) in k.segments() {
            ranks = world;
            // a one-rank gather keeps its own shard: no op at all
            if ranks > 1 {
                let gather = OpStats {
                    sends: (ranks - 1) as u64,
                    recvs: (ranks - 1) as u64,
                    bytes_sent: (4 * (ranks - 1) * (params / ranks)) as u64,
                    bytes_recv: (4 * (params - params / ranks)) as u64,
                };
                let one = CommStats {
                    ops: vec![("all_gather".into(), gather)],
                    ..CommStats::default()
                };
                comm = plus(&comm, &one, steps);
            }
        }
        assert_eq!(
            fp.comm, comm,
            "ZeRO-1 traffic is not dense + the all-gather"
        );
        assert_eq!(plain.opt_state_bytes, 8 * params, "dense moments");
        assert_eq!(fp.opt_state_bytes, 8 * (params / ranks), "rank 0's shard");
    }

    // A chain of resizes lands on the trajectory of the final geometry.
    if k.resizes != 0 {
        let fresh = cache.get(Knobs {
            world: k.segments().last().expect("one segment").1,
            resizes: 0,
            ..*k
        });
        for (step, (a, b)) in fp.losses.iter().zip(&fresh.losses).enumerate() {
            let (a, b) = (f32::from_bits(*a), f32::from_bits(*b));
            assert!(
                (a - b).abs() <= 2e-3 * (1.0 + a.abs().max(b.abs())),
                "step {step}: resized {a} vs fresh {b}"
            );
        }
    }
}

/// Checks every case, printing the one that fails. The two halves run
/// side by side on two threads, so Trainers at different kernel budgets
/// share the process while they train.
fn check_all(cases: &[Knobs]) {
    std::thread::scope(|s| {
        for half in cases.chunks(cases.len().div_ceil(2)) {
            s.spawn(move || {
                let mut cache = Cache::default();
                for k in half {
                    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(k, &mut cache))) {
                        eprintln!("determinism oracle: failing case {k:#?}");
                        resume_unwind(panic);
                    }
                }
            });
        }
    });
}

#[test]
fn generated_cases_hold_every_relation() {
    let cases: Vec<Knobs> = (0..CASES)
        .map(|case| Knobs::sample(&mut TestRng::for_case("determinism_oracle", case)))
        .collect();
    assert!(cases.iter().any(|k| k.world == 1), "no one-device case");
    check_all(&cases);
}

/// FPDT with four offloaded chunks on two ranks, every other knob off.
fn fpdt4() -> Knobs {
    Knobs {
        seed: 42,
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        world: 2,
        payload_bf16: false,
        sim_gbps: 0.0,
        threads: 1,
        activation_checkpoint: false,
        zero_shard: false,
        cuts: 0,
        respawn: false,
        resume_at: None,
        resizes: 0,
        fault_inject: 0,
        comm_retries: 0,
    }
}

#[test]
fn fixed_corners_hold_every_relation() {
    let everything = Knobs {
        payload_bf16: true,
        sim_gbps: PRICED_GBPS,
        activation_checkpoint: true,
        zero_shard: true,
        resume_at: Some(2),
        ..fpdt4()
    };
    let mut corners = vec![
        // Fpdt{4, offload} at threads 1 and 8 with bf16, a priced link,
        // AC, ZeRO-1 and a mid-run resume; the second also cut into
        // respawned calls under faults.
        everything,
        Knobs {
            threads: 8,
            cuts: 0b101,
            respawn: true,
            fault_inject: 2,
            comm_retries: 4,
            ..everything
        },
        // The f32 twin, where offload on vs off is compared.
        Knobs {
            payload_bf16: false,
            cuts: 0b111,
            ..everything
        },
        // A resize from 4 to 2 ranks through disk.
        Knobs {
            world: 4,
            threads: 2,
            resume_at: Some(2),
            resizes: 0b010,
            ..fpdt4()
        },
        // The other strategies under the same knobs.
        Knobs {
            mode: Mode::Ring,
            world: 4,
            threads: 8,
            ..everything
        },
        Knobs {
            mode: Mode::Ulysses,
            threads: 2,
            ..everything
        },
        Knobs {
            mode: Mode::Ulysses,
            world: 1,
            ..everything
        },
    ];
    // The chain 2 -> 4 -> 2 -> 4, resumed at each of its resizes.
    corners.extend((1..STEPS).map(|at| Knobs {
        zero_shard: true,
        activation_checkpoint: true,
        resume_at: Some(at),
        resizes: 0b111,
        ..fpdt4()
    }));
    check_all(&corners);
}

#[test]
fn another_seed_and_bf16_payloads_change_the_loss_bits() {
    let losses = |k: Knobs| run(&k).losses;
    let base = losses(fpdt4());
    let reseeded = losses(Knobs {
        seed: 43,
        ..fpdt4()
    });
    assert_ne!(base, reseeded, "the seed had no effect");
    let rounded = losses(Knobs {
        payload_bf16: true,
        ..fpdt4()
    });
    assert_ne!(base, rounded, "bf16 payloads never rounded");
}
