//! Golden-schedule regression tests for the FPDT pipeline simulator.
//!
//! A small fixed (model, cluster, sequence) is simulated at every corner
//! of the `PipelineOpts` ablation grid — offload x double_buffer x
//! copy_streams {0,1,2} x both backward nest orders — and the full event
//! log (task order, stream assignment, start/finish to 1e-9 s) is
//! digested and compared against `tests/golden/schedules.txt`.
//!
//! Any change to task emission order, dependency structure, stream
//! routing, the cost model, or the processor-sharing engine shows up as a
//! digest mismatch. The *runtime's* backward tile order —
//! `fpdt_core::chunk::tile_slots(u)`, which the executor walks — is
//! pinned verbatim next to it in
//! `tests/golden/tile_slots.txt`, one line per `u`. To bless an
//! intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p fpdt-core --test golden_schedule
//! ```
//!
//! and commit the rewritten golden files with a note on what moved.
//!
//! `tests/golden/exec_grads.txt` pins *values* across commits: the loss
//! and gradient bits of the offloaded two-rank fixture run, so a change
//! that claims to move bytes but not arithmetic shows it did not.
//! `tests/golden/ckpt_shards.txt` pins the on-disk checkpoint format the
//! same way, with values apart from counters: per shard of a two-step
//! run, one line digests every value entry and one lists the `stats.*`
//! traffic counters, so a change that only moves traffic diffs only the
//! counter lines.

mod common;

use fpdt_core::chunk::tile_slots;
use fpdt_core::pipeline::{simulate_block, NestOrder, PipelineOpts, PipelineReport};
use fpdt_core::runtime::ckpt::{read_shard, shard_paths, StateValue};
use fpdt_core::runtime::{Mode, RuntimeOptions, TrainConfig, Trainer};
use fpdt_model::config::ModelConfig;
use fpdt_sim::hw::ClusterSpec;
use std::fmt::Write as _;
use std::path::PathBuf;

const CHUNKS: usize = 3;
const SEQ: u64 = 12 * 1024;

fn fixture() -> (ModelConfig, ClusterSpec) {
    (ModelConfig::tiny(2, 64, 4, 64), ClusterSpec::a100_80g(1, 2))
}

fn corners() -> Vec<(String, PipelineOpts)> {
    let mut out = Vec::new();
    for offload in [false, true] {
        for double_buffer in [false, true] {
            for copy_streams in [0u8, 1, 2] {
                for nest in [NestOrder::KvOuter, NestOrder::QOuter] {
                    let key = format!(
                        "off{}_db{}_cs{}_{}",
                        offload as u8,
                        double_buffer as u8,
                        copy_streams,
                        match nest {
                            NestOrder::KvOuter => "kv",
                            NestOrder::QOuter => "q",
                        }
                    );
                    out.push((
                        key,
                        PipelineOpts {
                            chunks: CHUNKS,
                            offload,
                            double_buffer,
                            copy_streams,
                            nest,
                        },
                    ));
                }
            }
        }
    }
    out
}

fn run_corner(opts: PipelineOpts) -> PipelineReport {
    let (model, cluster) = fixture();
    simulate_block(&model, &cluster, SEQ, opts).expect("simulation runs")
}

/// Canonical event-log serialization: execution order, stream, times to
/// nanosecond resolution, plus the makespan.
fn canonical(rep: &PipelineReport) -> String {
    let mut s = String::new();
    for r in rep.sim.task_records() {
        writeln!(s, "{}|{}|{:.9}|{:.9}", r.name, r.stream, r.start, r.finish).unwrap();
    }
    writeln!(s, "makespan|{:.9}", rep.sim.makespan).unwrap();
    s
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Compares `body` against `tests/golden/<file>` line by line, or
/// rewrites the file when `GOLDEN_REGEN` is set.
fn check_golden(file: &str, body: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    if body != want {
        for (got, exp) in body.lines().zip(want.lines()) {
            if got != exp {
                eprintln!("golden mismatch:\n  expected {exp}\n  actual   {got}");
            }
        }
        panic!("diverged from tests/golden/{file}; if intentional, regenerate with GOLDEN_REGEN=1");
    }
}

#[test]
fn schedules_match_golden_digests() {
    let mut lines = Vec::new();
    for (key, opts) in corners() {
        let rep = run_corner(opts);
        lines.push(format!(
            "{key} {:016x} {:.9}",
            fnv1a(canonical(&rep).as_bytes()),
            rep.sim.makespan
        ));
    }
    check_golden("schedules.txt", &(lines.join("\n") + "\n"));
}

#[test]
fn runtime_tile_order_matches_golden() {
    // One line per chunk count: `u: slot | slot | ...`, tiles as `i,j`.
    let mut body = String::new();
    for u in 1..=16usize {
        let slots: Vec<String> = tile_slots(u)
            .iter()
            .map(|slot| {
                let tiles: Vec<String> = slot.iter().map(|(i, j)| format!("{i},{j}")).collect();
                tiles.join(" ")
            })
            .collect();
        writeln!(body, "{u}: {}", slots.join(" | ")).unwrap();
    }
    check_golden("tile_slots.txt", &body);
}

#[test]
fn offloaded_gradients_match_golden_bits() {
    // One line per (chunk count, rank): the loss bits and a digest of
    // every gradient's bits. f32 payloads; the thread count cannot move
    // a bit (`determinism_oracle`), so the ambient budget is fine.
    let mut body = String::new();
    for u in [2usize, 4] {
        let opts = RuntimeOptions::from_env().with_payload_bf16(false);
        for (rank, (loss, grads, _)) in common::grad_run(42, u, true, opts).iter().enumerate() {
            let bytes: Vec<u8> = grads
                .iter()
                .flat_map(|g| g.to_bits().to_le_bytes())
                .collect();
            writeln!(
                body,
                "u{u} rank{rank} loss {:08x} grads {} {:016x}",
                loss.to_bits(),
                grads.len(),
                fnv1a(&bytes)
            )
            .unwrap();
        }
    }
    check_golden("exec_grads.txt", &body);
}

#[test]
fn checkpoint_shards_match_golden_bytes() {
    // Two lines per shard file. `values`: the fnv1a of the shard
    // re-encoded with its `stats.*` entries blanked, so every parameter,
    // moment, loss, gradient and config entry is pinned but no counter.
    // `stats`: those counters in plain text. Every knob that could move a
    // bit is pinned here, so the fault-injection CI pass runs the same
    // bytes.
    let runtime = RuntimeOptions::from_env()
        .with_payload_bf16(false)
        .with_fault_inject(0)
        .with_comm_retries(0);
    let cfg = TrainConfig {
        world: 2,
        steps: 2,
        runtime,
        ..TrainConfig::small(Mode::Fpdt {
            chunks: 4,
            offload: true,
        })
    };
    let dir = std::env::temp_dir().join(format!("fpdt-golden-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut trainer = Trainer::new(cfg);
    common::forced_ctx(2)
        .enter(|| trainer.run_steps(2))
        .expect("two clean steps");
    trainer.checkpoint(&dir).expect("checkpoint");
    let mut body = String::new();
    for path in shard_paths(&dir).expect("a complete shard set") {
        let mut shard = read_shard(&path).expect("shard decodes");
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let stats: Vec<String> = shard
            .keys()
            .filter(|k| k.starts_with("stats."))
            .map(String::from)
            .collect();
        let mut counters = Vec::new();
        for key in &stats {
            let blank = match shard.str(key) {
                Ok(ops) => {
                    counters.push(format!("{key}={}", ops.replace('\n', ",")));
                    StateValue::Str(String::new())
                }
                Err(_) => {
                    let words = shard.u64s(key).expect("stats entries are u64 or str");
                    let words: Vec<String> = words.iter().map(u64::to_string).collect();
                    counters.push(format!("{key}={}", words.join(",")));
                    StateValue::U64(Vec::new())
                }
            };
            shard.insert(key.as_str(), blank);
        }
        let values = shard.to_bytes();
        writeln!(body, "{name} values {} {:016x}", values.len(), fnv1a(&values)).unwrap();
        writeln!(body, "{name} stats {}", counters.join(" ")).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    check_golden("ckpt_shards.txt", &body);
}

#[test]
fn payload_bf16_env_never_changes_schedule_digests() {
    // FPDT_BF16 halves wire bytes on the *runtime* path only; the
    // planner's schedule shape (task emission order, dependency
    // structure, stream routing, cost model) must be completely
    // independent of the payload format. Any future change that threads
    // payload width into task emission trips this digest comparison.
    let all_digests = || -> Vec<(String, u64)> {
        corners()
            .into_iter()
            .map(|(key, opts)| (key, fnv1a(canonical(&run_corner(opts)).as_bytes())))
            .collect()
    };
    std::env::remove_var("FPDT_BF16");
    let off = all_digests();
    std::env::set_var("FPDT_BF16", "1");
    let on = all_digests();
    std::env::remove_var("FPDT_BF16");
    assert_eq!(off, on, "schedule digests must be payload-format invariant");
}

#[test]
fn kv_outer_issues_u_kv_fetches_q_outer_quadratically_many() {
    let u = CHUNKS;
    let paper = PipelineOpts {
        chunks: u,
        offload: true,
        double_buffer: true,
        copy_streams: 2,
        nest: NestOrder::KvOuter,
    };
    let kv = run_corner(paper);
    let q = run_corner(PipelineOpts {
        nest: NestOrder::QOuter,
        ..paper
    });
    let count = |rep: &PipelineReport, prefix: &str| {
        rep.sim
            .task_records()
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .count()
    };
    // Per GPU: the paper's Figure-7 order fetches each KV chunk once...
    let gpus = 2;
    assert_eq!(count(&kv, "bwd.fetch_kv."), gpus * u);
    assert_eq!(count(&kv, "bwd.qouter."), 0);
    // ...while the flipped nesting refetches the KV chunk in every inner
    // iteration: u(u+1)/2 of them (the §4.2 traffic blow-up).
    assert_eq!(count(&q, "bwd.qouter.fetch_kv_acc."), gpus * u * (u + 1) / 2);
    assert_eq!(count(&q, "bwd.fetch_kv."), 0);
}

#[test]
fn double_buffering_never_increases_makespan() {
    for (key, opts) in corners() {
        if !opts.double_buffer {
            continue;
        }
        let db = run_corner(opts);
        let serial = run_corner(PipelineOpts {
            double_buffer: false,
            ..opts
        });
        assert!(
            db.sim.makespan <= serial.sim.makespan + 1e-9,
            "{key}: double-buffered {} > serialized {}",
            db.sim.makespan,
            serial.sim.makespan
        );
    }
}

#[test]
fn stream_assignment_follows_copy_stream_knob() {
    let base = PipelineOpts {
        chunks: CHUNKS,
        offload: true,
        double_buffer: true,
        copy_streams: 2,
        nest: NestOrder::KvOuter,
    };
    let three = run_corner(base);
    assert!(three.sim.streams().contains(&"gpu0.h2d".to_string()));
    assert!(three.sim.streams().contains(&"gpu0.d2h".to_string()));
    let shared = run_corner(PipelineOpts {
        copy_streams: 1,
        ..base
    });
    assert!(shared.sim.streams().contains(&"gpu0.copy".to_string()));
    let fused = run_corner(PipelineOpts {
        copy_streams: 0,
        ..base
    });
    // every transfer rides the compute stream
    assert!(fused
        .sim
        .task_records()
        .iter()
        .all(|r| r.stream.ends_with(".compute")));
}
