//! A `Trainer` owns its threads, and they are its rank threads.
//!
//! Each rank session is one thread (`fpdt-rank-r{rank}`). Its comm and
//! copy streams are clocks on that thread, not threads of their own, so a
//! Trainer is `world` threads at every link — free or priced. They live as
//! long as the sessions: calls reuse them, a resize or a failed call shuts
//! them down, and dropping the Trainer joins every one of them. Checked by
//! thread name from `/proc/self/task/*/comm`, so on Linux only, and in a
//! test binary of its own so no other test's trainer shares the names.

use fpdt_core::runtime::{Mode, RuntimeOptions, TrainConfig, Trainer};
use std::time::{Duration, Instant};

/// How long a joined thread may stay listed. `pthread_join` returns once
/// the kernel clears the exiting thread's tid, which it does before it
/// reaps the task, so `/proc/self/task` can list a thread that has
/// already been joined for a moment: a probe of 2,000 spawn-join rounds
/// saw it in 0-48 rounds per run, gone within 4 ms. A thread that really
/// outlives `shut_down` is still listed at the deadline.
const REAPING: Duration = Duration::from_secs(2);

/// Sorted names of this process's session threads; `None` where the
/// process's threads cannot be listed.
fn session_threads() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| {
            ["fpdt-rank-", "fpdt-comm-", "fpdt-d2h-", "fpdt-h2d-"]
                .iter()
                .any(|prefix| name.starts_with(prefix))
        })
        .collect();
    names.sort();
    Some(names)
}

/// The session threads once every joined one has been reaped: polls until
/// none is listed, or returns what is still listed at the deadline.
fn after_join() -> Vec<String> {
    let deadline = Instant::now() + REAPING;
    loop {
        let names = session_threads().unwrap_or_default();
        if names.is_empty() || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sessions_live_as_long_as_the_trainer_and_leave_no_thread_behind() {
    let Some(before) = session_threads() else {
        return;
    };
    assert!(before.is_empty(), "{before:?}");
    // One test, not two: the thread list is process-wide, so two
    // trainers alive at once would see each other's threads.
    for sim_gbps in [0.0, 0.05] {
        sessions_follow_the_trainer(sim_gbps);
    }
}

fn sessions_follow_the_trainer(sim_gbps: f64) {
    let live: Vec<String> = (0..2).map(|rank| format!("fpdt-rank-r{rank}")).collect();
    let clean = RuntimeOptions::from_env()
        .with_fault_inject(0)
        .with_comm_retries(0)
        .with_sim_gbps(sim_gbps);
    let cfg = TrainConfig {
        steps: 8,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        runtime: clean,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(cfg);
    assert_eq!(
        session_threads(),
        Some(vec![]),
        "nothing spawns before the first call"
    );
    for _ in 0..2 {
        trainer.run_steps(1).expect("healthy call");
        assert_eq!(
            session_threads().unwrap(),
            live,
            "one thread per rank, reused ({sim_gbps} GB/s)"
        );
    }
    trainer.resize(2);
    assert_eq!(
        after_join(),
        Vec::<String>::new(),
        "a resize shuts the sessions down"
    );
    trainer.run_steps(1).expect("healthy call");
    assert_eq!(session_threads().unwrap(), live);
    trainer.set_runtime(clean.with_fault_inject(1));
    trainer
        .run_steps(1)
        .expect_err("no retry budget: the call fails");
    assert_eq!(
        after_join(),
        Vec::<String>::new(),
        "a failed call shuts the sessions down"
    );
    trainer.set_runtime(clean);
    trainer.run_steps(1).expect("recovered call");
    assert_eq!(session_threads().unwrap(), live);
    drop(trainer);
    assert_eq!(
        after_join(),
        Vec::<String>::new(),
        "dropping the Trainer joins them all"
    );
}
